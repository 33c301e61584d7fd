let word n = Expr.Word n
let lit v = Expr.Lit (v land 0xffff)
let ind e = Expr.Ind e
let ( =: ) a b = Expr.Bin (Expr.Eq, a, b)
let ( <>: ) a b = Expr.Bin (Expr.Neq, a, b)
let ( <: ) a b = Expr.Bin (Expr.Lt, a, b)
let ( <=: ) a b = Expr.Bin (Expr.Le, a, b)
let ( >: ) a b = Expr.Bin (Expr.Gt, a, b)
let ( >=: ) a b = Expr.Bin (Expr.Ge, a, b)

let ( &&: ) a b =
  match (a, b) with
  | Expr.All xs, Expr.All ys -> Expr.All (xs @ ys)
  | Expr.All xs, y -> Expr.All (xs @ [ y ])
  | x, Expr.All ys -> Expr.All (x :: ys)
  | x, y -> Expr.All [ x; y ]

let ( ||: ) a b =
  match (a, b) with
  | Expr.Any xs, Expr.Any ys -> Expr.Any (xs @ ys)
  | Expr.Any xs, y -> Expr.Any (xs @ [ y ])
  | x, Expr.Any ys -> Expr.Any (x :: ys)
  | x, y -> Expr.Any [ x; y ]

let not_ e = Expr.Not e
let all es = Expr.All es
let any es = Expr.Any es
let ( &: ) a b = Expr.Bin (Expr.Band, a, b)
let ( |: ) a b = Expr.Bin (Expr.Bor, a, b)
let ( ^: ) a b = Expr.Bin (Expr.Bxor, a, b)
let ( +: ) a b = Expr.Bin (Expr.Add, a, b)
let ( -: ) a b = Expr.Bin (Expr.Sub, a, b)
let ( *: ) a b = Expr.Bin (Expr.Mul, a, b)
let ( /: ) a b = Expr.Bin (Expr.Div, a, b)
let ( %: ) a b = Expr.Bin (Expr.Mod, a, b)
let ( <<: ) a n = Expr.Bin (Expr.Lsh, a, lit n)
let ( >>: ) a n = Expr.Bin (Expr.Rsh, a, lit n)
let low_byte e = e &: lit 0x00ff
let high_byte e = e >>: 8

module Packet = Pf_pkt.Packet

(* ------------------------------------------------------------------ *)
(* Hash-consed symbolic expressions                                    *)
(* ------------------------------------------------------------------ *)

type exp = { id : int; node : node }

and node =
  | Nconst of int
  | Nword of int  (* the packet word at a fixed offset *)
  | Nind of exp  (* the packet word at a computed offset *)
  | Nbin of Op.t * exp * exp

type key = Kconst of int | Kword of int | Kind of int | Kbin of Op.t * int * int

module Ctx = struct
  type t = { tbl : (key, exp) Hashtbl.t; mutable next : int }

  let create () = { tbl = Hashtbl.create 251; next = 0 }

  let intern ctx key node =
    match Hashtbl.find_opt ctx.tbl key with
    | Some e -> e
    | None ->
        let e = { id = ctx.next; node } in
        ctx.next <- ctx.next + 1;
        Hashtbl.add ctx.tbl key e;
        e
end

let const ctx v =
  let v = v land 0xffff in
  Ctx.intern ctx (Kconst v) (Nconst v)

let word ctx i = Ctx.intern ctx (Kword i) (Nword i)

(* Parameters are words past any packet: a load's index is a 16-bit value,
   so no packet word reaches [param_base], and only loads fork on length. *)
let param_base = 0x10000
let imm ctx v = if v >= param_base then word ctx v else const ctx v

let ind ctx e =
  match e.node with
  | Nconst c -> word ctx c
  | _ -> Ctx.intern ctx (Kind e.id) (Nind e)

let commutes = function
  | Op.Eq | Op.Neq | Op.And | Op.Or | Op.Xor | Op.Add | Op.Mul -> true
  | _ -> false

(* [bin ctx op a b] builds the value [a op b] ([a] is T2, [b] is T1).
   Only called for value-producing applications: comparisons and
   short-circuit operators fork in the executors instead, and a divisor
   that may be zero is forked on before this is reached.

   The algebraic identities below deliberately mirror [Regopt.fold_binop]
   (plus commutative-operand ordering, as in its CSE key) so that an
   optimized program interns the very same node its source did — opaque
   predicates over derived values then cancel by identity during
   equivalence checking. *)
let rec bin ctx op a b =
  let fallthrough () =
    let a, b = if commutes op && b.id < a.id then (b, a) else (a, b) in
    Ctx.intern ctx (Kbin (op, a.id, b.id)) (Nbin (op, a, b))
  in
  match (a.node, b.node) with
  | Nconst x, Nconst y -> (
      match Op.apply op ~t2:x ~t1:y with
      | Op.Push r -> const ctx r
      | Op.Terminate _ | Op.Fault -> invalid_arg "Symex.bin: non-value result")
  | _ when a.id = b.id -> (
      match op with
      | Op.Xor | Op.Sub -> const ctx 0
      | Op.And | Op.Or -> a
      | _ -> fallthrough ())
  | Nbin (Op.And, x, { node = Nconst m; _ }), Nconst m'
  | Nbin (Op.And, { node = Nconst m; _ }, x), Nconst m'
  | Nconst m', Nbin (Op.And, x, { node = Nconst m; _ })
  | Nconst m', Nbin (Op.And, { node = Nconst m; _ }, x)
    when op = Op.And ->
      (* collapse nested masks so re-association cannot hide identity *)
      let m'' = m land m' in
      if m'' = 0 then const ctx 0 else bin ctx Op.And x (const ctx m'')
  | _, Nconst c | Nconst c, _
    when commutes op || (match b.node with Nconst _ -> true | _ -> false) -> (
      (* one constant operand; [e] is the symbolic one *)
      let e = match a.node with Nconst _ -> b | _ -> a in
      let const_is_t1 = match b.node with Nconst _ -> true | _ -> false in
      match (op, c) with
      | Op.And, 0xffff -> e
      | Op.And, 0 -> const ctx 0
      | Op.Or, 0 -> e
      | Op.Or, 0xffff -> const ctx 0xffff
      | Op.Xor, 0 -> e
      | Op.Add, 0 -> e
      | Op.Sub, 0 when const_is_t1 -> e
      | Op.Mul, 1 -> e
      | Op.Mul, 0 -> const ctx 0
      | Op.Div, 1 when const_is_t1 -> e
      | Op.Mod, 1 when const_is_t1 -> const ctx 0
      | (Op.Lsh | Op.Rsh), _ when const_is_t1 && c land 15 = 0 -> e
      | _ -> fallthrough ())
  | _ -> fallthrough ()

(* A tracked term: a packet word, possibly under a constant mask. *)
type term = { tword : int; tmask : int }

let view_term e =
  match e.node with
  | Nword i -> Some { tword = i; tmask = 0xffff }
  | Nbin (Op.And, a, b) -> (
      match (a.node, b.node) with
      | Nword i, Nconst m | Nconst m, Nword i -> Some { tword = i; tmask = m }
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Atoms and path conditions                                           *)
(* ------------------------------------------------------------------ *)

type cmp = Ceq | Cne | Clt | Cge

type pred =
  | Peq of exp * exp  (* value equality; operands ordered by id *)
  | Plt of exp * exp  (* strict less-than, in this operand order *)
  | Pin of exp  (* the value indexes an existing packet word *)

let pred_key = function
  | Peq (a, b) -> (0, a.id, b.id)
  | Plt (a, b) -> (1, a.id, b.id)
  | Pin e -> (2, e.id, -1)

type atom =
  | Aword of cmp * term * int
      (* (word land mask) cmp const; Clt/Cge only with mask 0xffff *)
  | Apair of bool * int * int  (* word i = word j (or ≠); full words *)
  | Alen of bool * int  (* word i exists (or does not) *)
  | Apred of bool * pred  (* opaque predicate with polarity *)

let atom_equal x y =
  match (x, y) with
  | Apred (p, a), Apred (q, b) -> p = q && pred_key a = pred_key b
  | _ -> x = y

module IMap = Map.Make (Int)

(* Summary of everything known about one equivalence class of words. *)
type winfo = {
  bits_mask : int;  (* which bits are pinned... *)
  bits_val : int;  (* ...and to what *)
  lo : int;
  hi : int;
  nes : (int * int) list;  (* (mask, v): (w land mask) <> v *)
}

type t = {
  atoms : atom list;  (* newest first *)
  parent : int IMap.t;  (* union-find over word indices *)
  info : winfo IMap.t;  (* keyed by class root *)
  diseq : (int * int) list;  (* word pairs constrained unequal *)
  len_lo : int;  (* packet has at least this many words *)
  len_hi : int;  (* at most this many (max_int: unbounded) *)
  preds : (bool * pred) list;
}

type cond = t

let true_cond =
  {
    atoms = [];
    parent = IMap.empty;
    info = IMap.empty;
    diseq = [];
    len_lo = 0;
    len_hi = max_int;
    preds = [];
  }

let equal_cond a b =
  List.length a.atoms = List.length b.atoms
  && List.for_all2 atom_equal a.atoms b.atoms

let rec find parent i =
  match IMap.find_opt i parent with
  | None -> i
  | Some p -> if p = i then i else find parent p

let default_winfo = { bits_mask = 0; bits_val = 0; lo = 0; hi = 0xffff; nes = [] }

let winfo_of c r = Option.value ~default:default_winfo (IMap.find_opt r c.info)

(* Smallest / largest value consistent with the pinned bits alone. *)
let min_bits w = w.bits_val
let max_bits w = w.bits_val lor (0xffff land lnot w.bits_mask)

let winfo_consistent w =
  w.lo <= w.hi
  && max_bits w >= w.lo
  && min_bits w <= w.hi
  && List.for_all
       (fun (m, v) -> not (w.bits_mask land m = m && w.bits_val land m = v))
       w.nes

let set_bits w ~mask ~value =
  let common = w.bits_mask land mask in
  if w.bits_val land common <> value land common then None
  else
    Some
      {
        w with
        bits_mask = w.bits_mask lor mask;
        bits_val = w.bits_val lor (value land mask);
      }

(* [add_atom c atom] is [None] when the extended condition is provably
   unsatisfiable — the executors prune that branch, which is what keeps
   path explosion down on guard chains. *)
let add_atom c atom =
  match atom with
  | Alen (true, i) ->
      let len_lo = max c.len_lo (i + 1) in
      if len_lo > c.len_hi then None
      else Some { c with atoms = atom :: c.atoms; len_lo }
  | Alen (false, i) ->
      let len_hi = min c.len_hi i in
      if c.len_lo > len_hi then None
      else Some { c with atoms = atom :: c.atoms; len_hi }
  | Apred (pol, p) ->
      let k = pred_key p in
      if List.exists (fun (q, pp) -> pred_key pp = k && q <> pol) c.preds then
        None
      else if List.exists (fun (q, pp) -> pred_key pp = k && q = pol) c.preds
      then Some { c with atoms = atom :: c.atoms }
      else Some { c with atoms = atom :: c.atoms; preds = (pol, p) :: c.preds }
  | Aword (cmp, t, v) -> (
      let r = find c.parent t.tword in
      let w = winfo_of c r in
      let w' =
        match cmp with
        | Ceq ->
            if v land lnot t.tmask land 0xffff <> 0 then None
            else set_bits w ~mask:t.tmask ~value:v
        | Cne ->
            if v land lnot t.tmask land 0xffff <> 0 then Some w
            else if t.tmask = 0 then if v = 0 then None else Some w
            else Some { w with nes = (t.tmask, v) :: w.nes }
        | Clt -> if v = 0 then None else Some { w with hi = min w.hi (v - 1) }
        | Cge -> Some { w with lo = max w.lo v }
      in
      match w' with
      | None -> None
      | Some w' ->
          if not (winfo_consistent w') then None
          else Some { c with atoms = atom :: c.atoms; info = IMap.add r w' c.info }
      )
  | Apair (true, i, j) -> (
      let ri = find c.parent i and rj = find c.parent j in
      if ri = rj then Some { c with atoms = atom :: c.atoms }
      else
        let wi = winfo_of c ri and wj = winfo_of c rj in
        match set_bits wi ~mask:wj.bits_mask ~value:wj.bits_val with
        | None -> None
        | Some w ->
            let w =
              {
                w with
                lo = max wi.lo wj.lo;
                hi = min wi.hi wj.hi;
                nes = wj.nes @ wi.nes;
              }
            in
            if not (winfo_consistent w) then None
            else
              let parent = IMap.add rj ri c.parent in
              let info = IMap.add ri w (IMap.remove rj c.info) in
              if
                List.exists
                  (fun (a, b) -> find parent a = find parent b)
                  c.diseq
              then None
              else Some { c with atoms = atom :: c.atoms; parent; info })
  | Apair (false, i, j) ->
      let ri = find c.parent i and rj = find c.parent j in
      if ri = rj then None
      else
        let wi = winfo_of c ri and wj = winfo_of c rj in
        if
          wi.bits_mask = 0xffff && wj.bits_mask = 0xffff
          && wi.bits_val = wj.bits_val
        then None
        else Some { c with atoms = atom :: c.atoms; diseq = (i, j) :: c.diseq }

let conj a b =
  (* replay [b]'s atoms (chronologically) onto [a] *)
  List.fold_left
    (fun acc atom ->
      match acc with None -> None | Some c -> add_atom c atom)
    (Some a) (List.rev b.atoms)

(* ------------------------------------------------------------------ *)
(* Concrete evaluation                                                 *)
(* ------------------------------------------------------------------ *)

let rec eval_exp packet e =
  match e.node with
  | Nconst v -> Some v
  | Nword i -> Packet.word_opt packet i
  | Nind ix -> (
      match eval_exp packet ix with
      | Some i -> Packet.word_opt packet i
      | None -> None)
  | Nbin (op, a, b) -> (
      match (eval_exp packet a, eval_exp packet b) with
      | Some x, Some y -> (
          match Op.apply op ~t2:x ~t1:y with
          | Op.Push r -> Some r
          | Op.Terminate _ | Op.Fault -> None)
      | _ -> None)

let pred_holds packet pol p =
  let v =
    match p with
    | Peq (a, b) -> (
        match (eval_exp packet a, eval_exp packet b) with
        | Some x, Some y -> Some (x = y)
        | _ -> None)
    | Plt (a, b) -> (
        match (eval_exp packet a, eval_exp packet b) with
        | Some x, Some y -> Some (x < y)
        | _ -> None)
    | Pin e -> (
        match eval_exp packet e with
        | Some v -> Some (v < Packet.word_count packet)
        | None -> None)
  in
  match v with Some h -> h = pol | None -> false

let atom_holds packet = function
  | Alen (true, i) -> Packet.word_count packet > i
  | Alen (false, i) -> Packet.word_count packet <= i
  | Aword (cmp, t, c) -> (
      match Packet.word_opt packet t.tword with
      | None -> false
      | Some v -> (
          let v = v land t.tmask in
          match cmp with
          | Ceq -> v = c
          | Cne -> v <> c
          | Clt -> v < c
          | Cge -> v >= c))
  | Apair (pol, i, j) -> (
      match (Packet.word_opt packet i, Packet.word_opt packet j) with
      | Some x, Some y -> (x = y) = pol
      | _ -> false)
  | Apred (pol, p) -> pred_holds packet pol p

let satisfies c packet = List.for_all (atom_holds packet) c.atoms

(* ------------------------------------------------------------------ *)
(* Witness synthesis                                                   *)
(* ------------------------------------------------------------------ *)

(* Candidate values for one class, smallest first: enumerate settings of
   the free bits (ascending submask iteration), filtering by bounds and
   disequalities. [exhausted] means every consistent value was produced —
   the enumeration is complete, so an empty result proves emptiness. *)
let candidates w ~limit =
  let free = 0xffff land lnot w.bits_mask in
  let ok v =
    v >= w.lo && v <= w.hi
    && List.for_all (fun (m, ne) -> v land m <> ne) w.nes
  in
  let rec go s acc n =
    let v = w.bits_val lor s in
    let acc, n = if ok v then (v :: acc, n + 1) else (acc, n) in
    if n >= limit then (List.rev acc, false)
    else
      let s' = (s - free) land free in
      if s' = 0 then (List.rev acc, true) else go s' acc n
  in
  go 0 [] 0

(* The per-class value search behind [solve]: [`Model] carries the chosen
   value of each class root and the mentioned word indices. *)
let assign c =
  if c.len_lo > c.len_hi then `Unsat
  else
    (* the word indices the condition talks about *)
    let mentioned =
      List.fold_left
        (fun acc atom ->
          match atom with
          | Aword (_, t, _) -> t.tword :: acc
          | Apair (_, i, j) -> i :: j :: acc
          | _ -> acc)
        [] c.atoms
      |> List.sort_uniq compare
    in
    let roots =
      List.map (fun i -> find c.parent i) mentioned |> List.sort_uniq compare
    in
    let exception Unsat_class in
    let exception Stuck in
    try
      let assignment = Hashtbl.create 16 in
      List.iter
        (fun r ->
          let forbidden =
            List.filter_map
              (fun (i, j) ->
                let ri = find c.parent i and rj = find c.parent j in
                if ri = r then Hashtbl.find_opt assignment rj
                else if rj = r then Hashtbl.find_opt assignment ri
                else None)
              c.diseq
          in
          let limit = List.length forbidden + 1 in
          let cands, exhausted = candidates (winfo_of c r) ~limit in
          match List.find_opt (fun v -> not (List.mem v forbidden)) cands with
          | Some v -> Hashtbl.replace assignment r v
          | None ->
              if exhausted && forbidden = [] then raise Unsat_class
              else raise Stuck)
        roots;
      `Model (assignment, mentioned)
    with
    | Unsat_class -> `Unsat
    | Stuck -> `Unknown

let solve c =
  match assign c with
  | (`Unsat | `Unknown) as r -> r
  | `Model (assignment, mentioned) ->
      let needed =
        List.fold_left (fun acc i -> max acc (i + 1)) c.len_lo mentioned
      in
      if needed > c.len_hi then `Unknown
      else
        let arr = Array.make needed 0 in
        List.iter
          (fun i ->
            match Hashtbl.find_opt assignment (find c.parent i) with
            | Some v -> arr.(i) <- v
            | None -> ())
          mentioned;
        let packet = Packet.of_words (Array.to_list arr) in
        (* Opaque predicates were not part of the search; check the model
           against the full condition and refuse to guess if it fails. *)
        if satisfies c packet then `Sat packet else `Unknown

let unsat c = match assign c with `Unsat -> true | `Unknown | `Model _ -> false

(* ------------------------------------------------------------------ *)
(* Path enumeration                                                    *)
(* ------------------------------------------------------------------ *)

type path = { cond : cond; accept : bool }
type outcome = { paths : path list; complete : bool }

let default_budget = 4096

exception Budget

type sink = {
  mutable acc : path list;
  mutable emitted : int;
  mutable steps : int;
  max_paths : int;
  max_steps : int;
}

let emit sink cond accept =
  if sink.emitted >= sink.max_paths then raise Budget;
  sink.emitted <- sink.emitted + 1;
  sink.acc <- { cond; accept } :: sink.acc

let tick sink =
  sink.steps <- sink.steps + 1;
  if sink.steps > sink.max_steps then raise Budget

(* Explore both outcomes of [atom] / its negation; infeasible branches are
   pruned, which is exactly what makes every emitted pair of paths
   mutually exclusive: siblings carry complementary atoms. *)
let branch c atom k = match add_atom c atom with None -> () | Some c -> k c

(* Fork on [a = b], calling [eq] / [ne] with the refined condition. *)
let equal_cases c a b ~eq ~ne =
  if a.id = b.id then eq c
  else
    match (a.node, b.node) with
    | Nconst x, Nconst y -> if x = y then eq c else ne c
    | _ -> (
        let tracked =
          match (view_term a, b.node) with
          | Some t, Nconst v -> Some (t, v)
          | _ -> (
              match (a.node, view_term b) with
              | Nconst v, Some t -> Some (t, v)
              | _ -> None)
        in
        match tracked with
        | Some (t, v) ->
            if v land lnot t.tmask land 0xffff <> 0 then ne c
            else (
              branch c (Aword (Ceq, t, v)) eq;
              branch c (Aword (Cne, t, v)) ne)
        | None -> (
            match (view_term a, view_term b) with
            | Some { tword = i; tmask = 0xffff }, Some { tword = j; tmask = 0xffff }
              ->
                let i, j = if i < j then (i, j) else (j, i) in
                branch c (Apair (true, i, j)) eq;
                branch c (Apair (false, i, j)) ne
            | _ ->
                let a, b = if b.id < a.id then (b, a) else (a, b) in
                let p = Peq (a, b) in
                branch c (Apred (true, p)) eq;
                branch c (Apred (false, p)) ne))

(* Fork on [a < b] (strict), calling [lt] / [ge]. *)
let less_cases c a b ~lt ~ge =
  if a.id = b.id then ge c
  else
    match (a.node, b.node) with
    | Nconst x, Nconst y -> if x < y then lt c else ge c
    | _, Nconst v -> (
        match view_term a with
        | Some t ->
            if v = 0 then ge c
            else if v > t.tmask then lt c
            else if t.tmask = 0xffff then (
              branch c (Aword (Clt, t, v)) lt;
              branch c (Aword (Cge, t, v)) ge)
            else
              let p = Plt (a, b) in
              branch c (Apred (true, p)) lt;
              branch c (Apred (false, p)) ge
        | None ->
            let p = Plt (a, b) in
            branch c (Apred (true, p)) lt;
            branch c (Apred (false, p)) ge)
    | Nconst v, _ -> (
        match view_term b with
        | Some t ->
            if t.tmask <= v then ge c
            else if t.tmask = 0xffff then (
              branch c (Aword (Cge, t, v + 1)) lt;
              branch c (Aword (Clt, t, v + 1)) ge)
            else
              let p = Plt (a, b) in
              branch c (Apred (true, p)) lt;
              branch c (Apred (false, p)) ge
        | None ->
            let p = Plt (a, b) in
            branch c (Apred (true, p)) lt;
            branch c (Apred (false, p)) ge)
    | _ ->
        let p = Plt (a, b) in
        branch c (Apred (true, p)) lt;
        branch c (Apred (false, p)) ge

(* Fork on the existence of word [i]; missing words reject. *)
let word_cases ctx sink c i k =
  branch c (Alen (false, i)) (fun c -> emit sink c false);
  branch c (Alen (true, i)) (fun c -> k (word ctx i) c)

(* Fork on an indirect load through [ix]. *)
let ind_cases ctx sink c ix k =
  match ix.node with
  | Nconst v -> word_cases ctx sink c v k
  | _ ->
      let p = Pin ix in
      branch c (Apred (false, p)) (fun c -> emit sink c false);
      branch c (Apred (true, p)) (fun c -> k (ind ctx ix) c)

(* Apply a binary stack operator to symbolic T2=[a], T1=[b]; [k] continues
   with the pushed value, [accept]/[reject] terminate the path. *)
let apply_cases ctx sink c op a b ~k =
  let terminate v c = emit sink c v in
  match op with
  | Op.Nop -> assert false
  | Op.Eq -> equal_cases c a b ~eq:(k (const ctx 1)) ~ne:(k (const ctx 0))
  | Op.Neq -> equal_cases c a b ~eq:(k (const ctx 0)) ~ne:(k (const ctx 1))
  | Op.Lt -> less_cases c a b ~lt:(k (const ctx 1)) ~ge:(k (const ctx 0))
  | Op.Ge -> less_cases c a b ~lt:(k (const ctx 0)) ~ge:(k (const ctx 1))
  | Op.Gt -> less_cases c b a ~lt:(k (const ctx 1)) ~ge:(k (const ctx 0))
  | Op.Le -> less_cases c b a ~lt:(k (const ctx 0)) ~ge:(k (const ctx 1))
  | Op.Cor -> equal_cases c a b ~eq:(terminate true) ~ne:(k (const ctx 0))
  | Op.Cand -> equal_cases c a b ~eq:(k (const ctx 1)) ~ne:(terminate false)
  | Op.Cnor -> equal_cases c a b ~eq:(terminate false) ~ne:(k (const ctx 0))
  | Op.Cnand -> equal_cases c a b ~eq:(k (const ctx 1)) ~ne:(terminate true)
  | Op.Div | Op.Mod -> (
      match b.node with
      | Nconst 0 -> terminate false c
      | Nconst _ -> k (bin ctx op a b) c
      | _ ->
          equal_cases c b (const ctx 0) ~eq:(terminate false)
            ~ne:(fun c -> k (bin ctx op a b) c))
  | Op.And | Op.Or | Op.Xor | Op.Add | Op.Sub | Op.Mul | Op.Lsh | Op.Rsh ->
      k (bin ctx op a b) c

let run ?(budget = default_budget) ?(lit = Fun.id) ctx validated =
  let insns = (Validate.program validated).Program.insns in
  let n = Array.length insns in
  let sink =
    {
      acc = [];
      emitted = 0;
      steps = 0;
      max_paths = budget;
      max_steps = budget * 8 * (n + 1);
    }
  in
  let rec exec pc stack c =
    tick sink;
    if pc >= n then finish stack c
    else
      let insn = insns.(pc) in
      with_action insn.Insn.action stack c (fun stack c ->
          match insn.Insn.op with
          | Op.Nop -> exec (pc + 1) stack c
          | op -> (
              match stack with
              | t1 :: t2 :: rest ->
                  apply_cases ctx sink c op t2 t1 ~k:(fun v c ->
                      exec (pc + 1) (v :: rest) c)
              | _ ->
                  (* validation proved no underflow *)
                  assert false))
  and with_action action stack c k =
    match action with
    | Action.Nopush -> k stack c
    | Action.Pushlit v -> k (imm ctx (lit v) :: stack) c
    | Action.Pushzero -> k (const ctx 0 :: stack) c
    | Action.Pushone -> k (const ctx 1 :: stack) c
    | Action.Pushffff -> k (const ctx 0xffff :: stack) c
    | Action.Pushff00 -> k (const ctx 0xff00 :: stack) c
    | Action.Push00ff -> k (const ctx 0x00ff :: stack) c
    | Action.Pushword i -> word_cases ctx sink c i (fun v c -> k (v :: stack) c)
    | Action.Pushind -> (
        match stack with
        | ix :: rest -> ind_cases ctx sink c ix (fun v c -> k (v :: rest) c)
        | [] -> assert false)
  and finish stack c =
    match stack with
    | [] -> emit sink c true
    | top :: _ ->
        equal_cases c top (const ctx 0)
          ~eq:(fun c -> emit sink c false)
          ~ne:(fun c -> emit sink c true)
  in
  let complete =
    try
      exec 0 [] true_cond;
      true
    with Budget -> false
  in
  { paths = List.rev sink.acc; complete }

let run_ir ?(budget = default_budget) ctx (ir : Ir.t) =
  let n = Array.length ir.Ir.instrs in
  let sink =
    {
      acc = [];
      emitted = 0;
      steps = 0;
      max_paths = budget;
      max_steps = budget * 8 * (n + 1);
    }
  in
  (* Registers are single-assignment and every read follows the write in
     instruction order, so one shared environment is safe across the
     depth-first forks: each branch re-executes and re-assigns a register
     before any of its reads. *)
  let env = Array.make (max 1 ir.Ir.reg_count) None in
  let value = function
    | Ir.Imm v -> imm ctx v
    | Ir.Reg r -> (
        match env.(r) with
        | Some e -> e
        | None -> invalid_arg "Symex.run_ir: read of undefined register")
  in
  let rec exec i c =
    tick sink;
    if i >= n then terminator c
    else
      match ir.Ir.instrs.(i) with
      | Ir.Load { dst; word = w } ->
          word_cases ctx sink c w (fun v c ->
              env.(dst) <- Some v;
              exec (i + 1) c)
      | Ir.Loadind { dst; idx } ->
          ind_cases ctx sink c (value idx) (fun v c ->
              env.(dst) <- Some v;
              exec (i + 1) c)
      | Ir.Binop { dst; op; a; b } ->
          let a = value a and b = value b in
          apply_cases ctx sink c op a b ~k:(fun v c ->
              env.(dst) <- Some v;
              exec (i + 1) c)
      | Ir.Tcond { cond = tc; a; b; verdict } -> (
          let a = value a and b = value b in
          let fire c = emit sink c verdict and fall c = exec (i + 1) c in
          match tc with
          | Ir.Ceq -> equal_cases c a b ~eq:fire ~ne:fall
          | Ir.Cne -> equal_cases c a b ~eq:fall ~ne:fire)
  and terminator c =
    match ir.Ir.terminator with
    | Ir.Halt v -> emit sink c v
    | Ir.Accept_if o ->
        equal_cases c (value o) (const ctx 0)
          ~eq:(fun c -> emit sink c false)
          ~ne:(fun c -> emit sink c true)
  in
  let complete =
    try
      exec 0 true_cond;
      true
    with Budget -> false
  in
  { paths = List.rev sink.acc; complete }

type 'a t = { waiters : ('a -> bool) Queue.t }

let create () = { waiters = Queue.create () }

let await ?timeout t =
  Process.suspend ?timeout (fun deliver -> Queue.push deliver t.waiters)

(* A deliver function returns false when its process already woke (timeout or
   an earlier signal); such stale waiters are simply discarded here. *)
let rec signal t v =
  match Queue.take_opt t.waiters with
  | None -> false
  | Some deliver -> if deliver v then true else signal t v

let broadcast t v =
  let rec go n = if signal t v then go (n + 1) else n in
  go 0

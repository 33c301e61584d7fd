type entry = Count of int ref | Derived of (unit -> int option)
type t = (string, entry) Hashtbl.t

let create () = Hashtbl.create 32

let incr ?(by = 1) t key =
  match Hashtbl.find_opt t key with
  | Some (Count r) -> r := !r + by
  | Some (Derived _) -> invalid_arg ("Stats.incr: derived key " ^ key)
  | None -> Hashtbl.add t key (Count (ref by))

let derive t key f =
  match Hashtbl.find_opt t key with
  | None -> Hashtbl.add t key (Derived f)
  | Some (Derived g) ->
    let sum () =
      match (g (), f ()) with None, v | v, None -> v | Some a, Some b -> Some (a + b)
    in
    Hashtbl.replace t key (Derived sum)
  | Some (Count _) -> invalid_arg ("Stats.derive: pushed key " ^ key)

let value = function Count r -> Some !r | Derived f -> f ()

let get t key =
  match Hashtbl.find_opt t key with Some e -> Option.value (value e) ~default:0 | None -> 0

let pairs t =
  Hashtbl.fold (fun k e acc -> match value e with Some v -> (k, v) :: acc | None -> acc) t []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

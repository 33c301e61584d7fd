type t = {
  id : int;
  name : string;
  engine : Engine.t;
  cpu : Cpu.t;
  mutable state : [ `Runnable | `Blocked | `Dead ];
  mutable exit_hooks : (unit -> unit) list;
}

type _ Effect.t +=
  | Use_cpu : Time.t -> unit Effect.t
  | Pause : Time.t -> unit Effect.t
  | Suspend : (('a -> bool) -> unit) * Time.t option -> 'a option Effect.t

let next_id = ref 0

(* Simulations are single-threaded; the running process is tracked so that
   [self] works across effect resumptions. *)
let current : t option ref = ref None

let id t = t.id
let name t = t.name
let state t = t.state

let self () =
  match !current with
  | Some p -> p
  | None -> failwith "Process.self: not inside a process"

let running () = Option.is_some !current

let use_cpu cost = Effect.perform (Use_cpu cost)
let pause d = Effect.perform (Pause d)
let suspend ?timeout register = Effect.perform (Suspend (register, timeout))

let spawn engine cpu ~name body =
  incr next_id;
  let proc = { id = !next_id; name; engine; cpu; state = `Runnable; exit_hooks = [] } in
  let me = Some proc and owner = `Proc proc.id in
  (* Run [f x y] as this process: [current] names it for the duration and
     is restored however [f] exits, so an escaping exception leaves no
     process running. A wakeup is then one scheduled closure. *)
  let as_current f x y =
    let saved = !current in
    current := me;
    match f x y with
    | () -> current := saved
    | exception e ->
      current := saved;
      raise e
  in
  let resume k v = as_current Effect.Deep.continue k v in
  let effc : type b. b Effect.t -> ((b, unit) Effect.Deep.continuation -> unit) option =
    function
    | Use_cpu cost ->
      Some
        (fun k ->
          let finish = Cpu.run cpu ~owner ~start:(Engine.now engine) ~cost in
          Engine.schedule engine ~at:finish (fun () -> resume k ()))
    | Pause d ->
      Some
        (fun k ->
          Cpu.mark_descheduled cpu;
          Engine.schedule_after engine d (fun () -> resume k ()))
    | Suspend (register, timeout) ->
      Some
        (fun k ->
          Cpu.mark_descheduled cpu;
          proc.state <- `Blocked;
          let decided = ref false in
          let deliver v =
            if !decided then false
            else begin
              decided := true;
              proc.state <- `Runnable;
              Engine.schedule engine ~at:(Engine.now engine) (fun () -> resume k (Some v));
              true
            end
          in
          (match timeout with
          | None -> ()
          | Some d ->
            Engine.schedule_after engine d (fun () ->
                if not !decided then begin
                  decided := true;
                  proc.state <- `Runnable;
                  resume k None
                end));
          register deliver)
    | _ -> None
  in
  let handler =
    {
      Effect.Deep.retc =
        (fun () ->
          proc.state <- `Dead;
          let hooks = proc.exit_hooks in
          proc.exit_hooks <- [];
          List.iter (fun hook -> hook ()) hooks);
      exnc =
        (fun e ->
          proc.state <- `Dead;
          raise e);
      effc;
    }
  in
  Engine.schedule engine ~at:(Engine.now engine) (fun () ->
      as_current (Effect.Deep.match_with body) () handler);
  proc

let join target =
  match target.state with
  | `Dead -> ()
  | `Runnable | `Blocked ->
    ignore
      (suspend (fun deliver ->
           target.exit_hooks <- (fun () -> ignore (deliver ())) :: target.exit_hooks)
        : unit option)

open Pf_sim

(* {1 Engine} *)

let test_engine_order () =
  let eng = Engine.create () in
  let log = ref [] in
  Engine.schedule eng ~at:50 (fun () -> log := 50 :: !log);
  Engine.schedule eng ~at:10 (fun () -> log := 10 :: !log);
  Engine.schedule eng ~at:30 (fun () -> log := 30 :: !log);
  Engine.run eng;
  Alcotest.(check (list int)) "time order" [ 10; 30; 50 ] (List.rev !log);
  Alcotest.(check int) "clock at last event" 50 (Engine.now eng)

let test_engine_same_time_fifo () =
  let eng = Engine.create () in
  let log = ref [] in
  for i = 1 to 20 do
    Engine.schedule eng ~at:5 (fun () -> log := i :: !log)
  done;
  Engine.run eng;
  Alcotest.(check (list int)) "fifo among equals" (List.init 20 (fun i -> i + 1))
    (List.rev !log)

let test_engine_schedule_past () =
  let eng = Engine.create () in
  let ran_at = ref (-1) in
  Engine.schedule eng ~at:100 (fun () ->
      Engine.schedule eng ~at:10 (fun () -> ran_at := Engine.now eng));
  Engine.run eng;
  Alcotest.(check int) "past events run now" 100 !ran_at

let test_engine_until () =
  let eng = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule eng ~at:(i * 100) (fun () -> incr count)
  done;
  Engine.run ~until:450 eng;
  Alcotest.(check int) "only first four" 4 !count;
  Alcotest.(check int) "clock at limit" 450 (Engine.now eng);
  Engine.run eng;
  Alcotest.(check int) "rest run later" 10 !count

(* The heap against a model: a map ordered by (time, scheduling order).
   An op schedules one event (at an offset from now, possibly in the past)
   whose run schedules children the same way, schedules a burst of
   childless events, or runs up to a limit at or after now. *)
type engine_op =
  | Schedule of int * int list
  | Burst of int * int (* count, offset seed *)
  | Run_until of int

module Model_queue = Map.Make (struct
  type t = int * int

  let compare = compare
end)

type model = {
  mutable queue : (int * int list) Model_queue.t; (* (time, seq) -> (id, children) *)
  mutable clock : int;
  mutable seq : int;
  mutable processed : int;
  mutable fired : (int * int) list; (* (id, time), latest first *)
}

(* Ids count scheduling calls, in the engine and in the model alike. *)
let model_schedule m ~offset children =
  let time = max m.clock (m.clock + offset) in
  m.queue <- Model_queue.add (time, m.seq) (m.seq, children) m.queue;
  m.seq <- m.seq + 1

(* The model's run: fire (time, seq)-least events while they are due,
   then advance the clock to the limit, if there is one. *)
let rec model_run ?limit m =
  match Model_queue.min_binding_opt m.queue with
  | Some (((time, _) as key), (id, children))
    when Option.fold limit ~none:true ~some:(fun l -> time <= l) ->
    m.queue <- Model_queue.remove key m.queue;
    m.clock <- time;
    m.processed <- m.processed + 1;
    m.fired <- (id, time) :: m.fired;
    List.iter (fun offset -> model_schedule m ~offset []) children;
    model_run ?limit m
  | Some _ | None -> Option.iter (fun l -> m.clock <- max m.clock l) limit

let burst_offsets count seed = List.init count (fun i -> (((i * 7919) + seed) mod 1000) - 100)

let gen_engine_ops =
  let open QCheck.Gen in
  let offset = int_range (-20) 40 in
  let op =
    frequency
      [ (6, map2 (fun o cs -> Schedule (o, cs)) offset (list_size (int_bound 3) offset));
        (1, map2 (fun n s -> Burst (n, s)) (int_bound 200) (int_bound 1000));
        (3, map (fun d -> Run_until d) (int_bound 60)) ]
  in
  (* Every case also crosses 10,000 pending events. *)
  map3
    (fun before big after -> before @ [ Burst (big, 3) ] @ after)
    (list_size (int_bound 30) op) (int_range 10_001 12_000) (list_size (int_bound 30) op)

let pp_engine_op = function
  | Schedule (o, cs) ->
    Printf.sprintf "schedule %d [%s]" o (String.concat ";" (List.map string_of_int cs))
  | Burst (n, s) -> Printf.sprintf "burst %d seed %d" n s
  | Run_until d -> Printf.sprintf "run until now+%d" d

let prop_engine_matches_model =
  QCheck.Test.make ~name:"engine = (time, scheduling order) model" ~count:100
    (QCheck.make ~print:(fun ops -> String.concat ", " (List.map pp_engine_op ops)) gen_engine_ops)
    (fun ops ->
      let eng = Engine.create () in
      let m = { queue = Model_queue.empty; clock = 0; seq = 0; processed = 0; fired = [] } in
      let fired = ref [] and next_id = ref 0 and peak = ref 0 in
      let rec schedule offset children =
        let id = !next_id in
        incr next_id;
        Engine.schedule eng ~at:(Engine.now eng + offset) (fun () ->
            fired := (id, Engine.now eng) :: !fired;
            List.iter (fun o -> schedule o []) children)
      in
      let both offset children =
        schedule offset children;
        model_schedule m ~offset children
      in
      let agree () =
        peak := max !peak (Engine.pending eng);
        Engine.now eng = m.clock
        && Engine.pending eng = Model_queue.cardinal m.queue
        && Engine.events_processed eng = m.processed
        && !fired = m.fired
      in
      List.for_all
        (fun op ->
          (match op with
          | Schedule (o, cs) -> both o cs
          | Burst (n, s) -> List.iter (fun o -> both o []) (burst_offsets n s)
          | Run_until d ->
            let limit = Engine.now eng + d in
            Engine.run ~until:limit eng;
            model_run ~limit m);
          agree ())
        ops
      && (Engine.run eng;
          model_run m;
          agree ())
      && !peak > 10_000)

(* {1 CPU} *)

let test_cpu_serializes () =
  let cpu = Cpu.create Costs.free in
  let f1 = Cpu.run cpu ~owner:(`Proc 1) ~start:0 ~cost:100 in
  let f2 = Cpu.run cpu ~owner:(`Proc 1) ~start:0 ~cost:50 in
  Alcotest.(check int) "first ends at 100" 100 f1;
  Alcotest.(check int) "second queued behind" 150 f2;
  Alcotest.(check int) "same proc, no switches" 0 (Cpu.context_switches cpu)

let test_cpu_context_switch () =
  let cpu = Cpu.create Costs.microvax_ii in
  let _ = Cpu.run cpu ~owner:(`Proc 1) ~start:0 ~cost:100 in
  let f2 = Cpu.run cpu ~owner:(`Proc 2) ~start:100 ~cost:100 in
  Alcotest.(check int) "0.4ms switch charged" 600 f2;
  Alcotest.(check int) "one switch" 1 (Cpu.context_switches cpu);
  (* Interrupt work neither charges nor changes ownership. *)
  let f3 = Cpu.run cpu ~owner:`Interrupt ~start:600 ~cost:10 in
  Alcotest.(check int) "interrupt free of switch" 610 f3;
  let f4 = Cpu.run cpu ~owner:(`Proc 2) ~start:610 ~cost:10 in
  Alcotest.(check int) "proc 2 still current" 620 f4;
  Alcotest.(check int) "still one switch" 1 (Cpu.context_switches cpu)

(* {1 Processes} *)

let test_process_cpu_and_pause () =
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.free in
  let finish = ref 0 in
  let p =
    Process.spawn eng cpu ~name:"worker" (fun () ->
        Process.use_cpu 100;
        Process.pause 1000;
        Process.use_cpu 50;
        finish := Engine.now eng)
  in
  Engine.run eng;
  Alcotest.(check int) "timeline" 1150 !finish;
  Alcotest.(check bool) "dead" true (Process.state p = `Dead)

let test_two_processes_interleave () =
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.microvax_ii in
  let order = ref [] in
  let mk name =
    Process.spawn eng cpu ~name (fun () ->
        for i = 1 to 3 do
          Process.use_cpu 100;
          order := (name, i, Engine.now eng) :: !order;
          Process.pause 50
        done)
  in
  let _a = mk "a" and _b = mk "b" in
  Engine.run eng;
  Alcotest.(check int) "six steps" 6 (List.length !order);
  Alcotest.(check bool) "context switches occurred" true (Cpu.context_switches cpu > 0)

let test_condition_signal_and_timeout () =
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.free in
  let cond : int Condition.t = Condition.create () in
  let got = ref [] in
  let _c =
    Process.spawn eng cpu ~name:"consumer" (fun () ->
        got := Condition.await ~timeout:100 cond :: !got;
        got := Condition.await ~timeout:100 cond :: !got)
  in
  let _p =
    Process.spawn eng cpu ~name:"producer" (fun () ->
        Process.pause 50;
        ignore (Condition.signal cond 42 : bool))
  in
  Engine.run eng;
  Alcotest.(check (list (option int))) "one value then timeout" [ Some 42; None ]
    (List.rev !got)

let test_signal_with_no_waiters () =
  let cond : int Condition.t = Condition.create () in
  Alcotest.(check bool) "signal returns false" false (Condition.signal cond 1)

let test_broadcast () =
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.free in
  let cond : unit Condition.t = Condition.create () in
  let woken = ref 0 in
  for _ = 1 to 5 do
    ignore
      (Process.spawn eng cpu ~name:"waiter" (fun () ->
           match Condition.await cond with Some () -> incr woken | None -> ()))
  done;
  let _p =
    Process.spawn eng cpu ~name:"broadcaster" (fun () ->
        Process.pause 10;
        ignore (Condition.broadcast cond () : int))
  in
  Engine.run eng;
  Alcotest.(check int) "all five woken" 5 !woken

let test_join () =
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.free in
  let done_at = ref (-1) in
  let worker = Process.spawn eng cpu ~name:"w" (fun () -> Process.pause 500) in
  let _watcher =
    Process.spawn eng cpu ~name:"j" (fun () ->
        Process.join worker;
        done_at := Engine.now eng)
  in
  Engine.run eng;
  Alcotest.(check int) "join wakes at worker exit" 500 !done_at

let test_stale_waiter_skipped () =
  (* A waiter that times out must not swallow a later signal. *)
  let eng = Engine.create () in
  let cpu = Cpu.create Costs.free in
  let cond : int Condition.t = Condition.create () in
  let first = ref None and second = ref None in
  let _w1 =
    Process.spawn eng cpu ~name:"w1" (fun () -> first := Condition.await ~timeout:10 cond)
  in
  let _w2 =
    Process.spawn eng cpu ~name:"w2" (fun () ->
        Process.pause 5;
        second := Condition.await cond)
  in
  let _p =
    Process.spawn eng cpu ~name:"p" (fun () ->
        Process.pause 100;
        ignore (Condition.signal cond 7 : bool))
  in
  Engine.run eng;
  Alcotest.(check (option int)) "w1 timed out" None !first;
  Alcotest.(check (option int)) "w2 got the value" (Some 7) !second

(* An exception raised in a process body after a wakeup escapes
   [Engine.run], leaves no process running, and leaves the CPU charging the
   next process exactly as after a normal exit. *)
let test_process_exception_escapes () =
  let after_first ~raises first =
    let eng = Engine.create () in
    let cpu = Cpu.create Costs.microvax_ii in
    let p = Process.spawn eng cpu ~name:"first" first in
    let escaped = match Engine.run eng with () -> false | exception Failure _ -> true in
    Alcotest.(check bool) "escapes Engine.run" raises escaped;
    Alcotest.(check bool) "first is dead" true (Process.state p = `Dead);
    Alcotest.(check bool) "no process running" false (Process.running ());
    let finish = ref (-1) in
    let q =
      Process.spawn eng cpu ~name:"second" (fun () ->
          Alcotest.(check bool) "second is current" true (Process.running ());
          Process.use_cpu 50;
          finish := Engine.now eng)
    in
    Engine.run eng;
    Alcotest.(check bool) "second is dead" true (Process.state q = `Dead);
    (!finish, Cpu.busy_time cpu, Cpu.context_switches cpu)
  in
  let failing =
    after_first ~raises:true (fun () ->
        Process.use_cpu 100;
        failwith "boom")
  in
  let normal = after_first ~raises:false (fun () -> Process.use_cpu 100) in
  Alcotest.(check (triple int int int)) "charged as after a normal exit" normal failing;
  Alcotest.check_raises "self outside any process" (Failure "Process.self: not inside a process")
    (fun () -> ignore (Process.self () : Process.t))

(* {1 Stats & Rng} *)

let test_stats () =
  let s = Stats.create () in
  Stats.incr s "a";
  Stats.incr ~by:4 s "a";
  Stats.incr s "b";
  Alcotest.(check int) "a" 5 (Stats.get s "a");
  Alcotest.(check int) "untouched" 0 (Stats.get s "zz");
  Alcotest.(check (list (pair string int))) "pairs sorted" [ ("a", 5); ("b", 1) ]
    (Stats.pairs s)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  let xs = List.init 20 (fun _ -> Rng.int a 1000) in
  let ys = List.init 20 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same seed same stream" xs ys;
  List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 1000)) xs

let test_rng_exponential_positive () =
  let r = Rng.create 7 in
  for _ = 1 to 100 do
    Alcotest.(check bool) "positive" true (Rng.exponential r ~mean:100. >= 0.)
  done

let test_time () =
  Alcotest.(check int) "ms" 1570 (Time.ms 1.57);
  Alcotest.(check int) "sec" 2_500_000 (Time.sec 2.5);
  Alcotest.(check (float 0.001)) "to_ms" 1.57 (Time.to_ms 1570)

let suite =
  ( "sim",
    [
      Alcotest.test_case "engine time order" `Quick test_engine_order;
      Alcotest.test_case "engine same-time fifo" `Quick test_engine_same_time_fifo;
      Alcotest.test_case "engine schedule in past" `Quick test_engine_schedule_past;
      Alcotest.test_case "engine run until" `Quick test_engine_until;
      QCheck_alcotest.to_alcotest prop_engine_matches_model;
      Alcotest.test_case "cpu serializes" `Quick test_cpu_serializes;
      Alcotest.test_case "cpu context switch" `Quick test_cpu_context_switch;
      Alcotest.test_case "process cpu+pause" `Quick test_process_cpu_and_pause;
      Alcotest.test_case "two processes" `Quick test_two_processes_interleave;
      Alcotest.test_case "condition signal/timeout" `Quick test_condition_signal_and_timeout;
      Alcotest.test_case "signal without waiters" `Quick test_signal_with_no_waiters;
      Alcotest.test_case "broadcast" `Quick test_broadcast;
      Alcotest.test_case "join" `Quick test_join;
      Alcotest.test_case "stale waiter skipped" `Quick test_stale_waiter_skipped;
      Alcotest.test_case "process exception escapes run" `Quick test_process_exception_escapes;
      Alcotest.test_case "stats" `Quick test_stats;
      Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
      Alcotest.test_case "rng exponential" `Quick test_rng_exponential_positive;
      Alcotest.test_case "time conversions" `Quick test_time;
    ] )

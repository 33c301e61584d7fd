(* Allocation budgets of the simulator's per-event and per-packet paths,
   in minor-heap words ([Gc.minor_words]). *)
open Pf_kernel
module Engine = Pf_sim.Engine
module Fast = Pf_filter.Fast
module Gen = Pf_monitor.Traffic.Gen

let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* The 12 Pup ports of the paper-reproduction benchmark: priority-10
   filters for disjoint flows of 128-byte Pup frames. *)
let pup_gen () = Gen.make ~blend:[ (Gen.Pup, 1.) ] ~frame_bytes:128 ~seed:7 ~flows:12 ~skew:Gen.Uniform ()

let fast_of program =
  match Pf_filter.Validate.check program with
  | Ok v -> Fast.compile v
  | Error _ -> Alcotest.fail "generated filter does not validate"

(* Accepting, rejecting and faulting runs alike. *)
let test_run_packed () =
  let gen = pup_gen () in
  let filters = Array.init 12 (fun i -> fast_of (Gen.filter ~priority:10 (Gen.flow gen i))) in
  let frames = Array.init 12 (fun i -> Gen.frame (Gen.flow gen i)) in
  let short = Pf_pkt.Packet.of_words [ 0x0102; 2 ] in
  let accepts = ref 0 in
  let allocated =
    words (fun () ->
        for _ = 1 to 100 do
          for i = 0 to 11 do
            for j = 0 to 11 do
              accepts := !accepts + (Fast.run_packed filters.(i) frames.(j) land 1)
            done;
            accepts := !accepts + (Fast.run_packed filters.(i) short land 1)
          done
        done)
  in
  Alcotest.(check int) "each filter accepts its own flow only" (100 * 12) !accepts;
  Alcotest.(check (float 0.)) "run_packed allocates nothing" 0. allocated

(* Once the heap has grown, scheduling and running a preallocated closure
   allocates nothing. *)
let test_engine_event () =
  let eng = Engine.create () in
  let count = ref 0 in
  let tick () = incr count in
  for i = 1 to 5_000 do
    Engine.schedule eng ~at:(i mod 97) tick
  done;
  Engine.run eng;
  let n = 10_000 in
  let allocated =
    words (fun () ->
        for i = 1 to n do
          Engine.schedule eng ~at:(Engine.now eng + (i mod 13)) tick;
          if i mod 4 = 0 then Engine.run eng
        done;
        Engine.run eng)
  in
  Alcotest.(check int) "every event ran" (5_000 + n) !count;
  Alcotest.(check (float 0.)) "no words per event" 0. (allocated /. float_of_int n)

(* The paper's kernel: a [`Sequential], cache-off, compile-[`Off] device
   whose walk tests the 12 Pup filters in turn. Averaged over enough
   packets to include the busier-first reorders every 256. *)
let test_demux_budget () =
  let eng = Engine.create () in
  let link = Pf_net.Link.create eng Pf_net.Frame.Dix10 ~rate_mbit:10. () in
  let host = Host.create link ~name:"rx" ~addr:(Pf_net.Addr.eth_host 2) in
  let pf = Host.pf host in
  Pfdev.set_strategy pf `Sequential;
  Pfdev.set_cache_enabled pf false;
  Pfdev.set_compile_strategy pf `Off;
  let gen = pup_gen () in
  for i = 0 to 11 do
    let port = Pfdev.open_port pf in
    match Pfdev.set_filter port (Gen.filter ~priority:10 (Gen.flow gen i)) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "install"
  done;
  let n = 1_024 in
  let frames = Array.init n (fun _ -> Gen.frame (Gen.draw gen)) in
  let allocated = ref 0. and accepted = ref 0 in
  Array.iter
    (fun frame ->
      allocated := !allocated +. words (fun () -> if Pfdev.demux pf frame then incr accepted);
      Engine.run eng)
    frames;
  Alcotest.(check int) "every frame accepted" n !accepted;
  let per_packet = !allocated /. float_of_int n in
  if per_packet > 64. then Alcotest.failf "demux allocates %.1f words per packet (budget 64)" per_packet

(* The checked interpreter reads the program's instructions in place: a
   long program that runs to its end allocates per run no more than a
   2-instruction one. *)
let test_interp_run () =
  let module Insn = Pf_filter.Insn in
  let module Interp = Pf_filter.Interp in
  let program n =
    Pf_filter.Program.v
      (Insn.make Pf_filter.Action.Pushone
       :: List.init (n - 1) (fun _ ->
              Insn.make ~op:Pf_filter.Op.And Pf_filter.Action.Pushone))
  in
  let packet = Pf_pkt.Packet.of_words [ 1; 2 ] in
  let per_run p =
    let runs = 100 in
    let accepted = ref 0 in
    let w =
      words (fun () ->
          for _ = 1 to runs do
            if (Interp.run p packet).Interp.accept then incr accepted
          done)
    in
    Alcotest.(check int) "every run accepts" runs !accepted;
    w /. float_of_int runs
  in
  let short = per_run (program 2) and long = per_run (program 500) in
  if long > short then
    Alcotest.failf "a 500-instruction run allocates %.1f words, a 2-instruction one %.1f"
      long short

let suite =
  ( "alloc",
    [
      Alcotest.test_case "Fast.run_packed: 0 words" `Quick test_run_packed;
      Alcotest.test_case "engine event: 0 words" `Quick test_engine_event;
      Alcotest.test_case "paper demux: at most 64 words" `Quick test_demux_budget;
      Alcotest.test_case "Interp.run: no words per instruction" `Quick test_interp_run;
    ] )

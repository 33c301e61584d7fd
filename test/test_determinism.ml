(* The whole simulation is deterministic: same seed, same world, same
   event count, same counters — the property that makes every benchmark in
   this repository reproducible bit-for-bit. Plus small odds and ends of
   the simulation substrate. *)

open Pf_proto
module Packet = Pf_pkt.Packet
module Engine = Pf_sim.Engine
module Process = Pf_sim.Process
module Host = Pf_kernel.Host
module Addr = Pf_net.Addr
module Frame = Pf_net.Frame

(* A workload touching most of the machinery: UDP+ARP kernel traffic,
   user-level Pups with random sizes and pacing, a promiscuous monitor.
   Returns a fingerprint of everything observable. *)
let fingerprint ~seed =
  let rng = Pf_sim.Rng.create seed in
  let eng = Engine.create () in
  let link = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
  let a = Host.create link ~name:"a" ~addr:(Addr.eth_host 1) in
  let b = Host.create link ~name:"b" ~addr:(Addr.eth_host 2) in
  let mon = Host.create link ~name:"mon" ~addr:(Addr.eth_host 9) in
  let capture = Pf_monitor.Capture.start mon in
  let ip_b = Ipv4.addr_of_string "10.0.0.2" in
  let stack_a = Ipstack.attach a ~ip:(Ipv4.addr_of_string "10.0.0.1") in
  let stack_b = Ipstack.attach b ~ip:ip_b in
  let udp_a = Udp.create stack_a and udp_b = Udp.create stack_b in
  let echo = Udp.socket udp_b ~port:7 () in
  ignore
    (Host.spawn b ~name:"echo" (fun () ->
         let rec loop () =
           match Udp.recv ~timeout:400_000 echo with
           | Some (src, port, data) ->
             Udp.send echo ~dst:src ~dst_port:port data;
             loop ()
           | None -> ()
         in
         loop ()));
  let sock = Udp.socket udp_a () in
  ignore
    (Host.spawn a ~name:"chatter" (fun () ->
         for _ = 1 to 20 do
           Udp.send sock ~dst:ip_b ~dst_port:7
             (Packet.of_string (String.make (1 + Pf_sim.Rng.int rng 200) 'x'));
           ignore (Udp.recv ~timeout:200_000 sock);
           Process.pause (Pf_sim.Rng.int rng 5_000)
         done));
  let psock_b = Pup_socket.create b ~socket:0x44l in
  ignore
    (Host.spawn b ~name:"pup-sink" (fun () ->
         let rec loop () =
           match Pup_socket.recv ~timeout:400_000 psock_b with
           | Some _ -> loop ()
           | None -> ()
         in
         loop ()));
  let psock_a = Pup_socket.create a ~socket:0x45l in
  ignore
    (Host.spawn a ~name:"pup-source" (fun () ->
         for i = 1 to 15 do
           Pup_socket.send psock_a ~dst:(Pup.port ~host:2 0x44l) ~ptype:1
             ~id:(Int32.of_int i)
             (Packet.of_string (String.make (Pf_sim.Rng.int rng 300) 'p'));
           Process.pause (Pf_sim.Rng.int rng 7_000)
         done));
  Engine.run eng;
  let trace = Pf_monitor.Capture.stop capture in
  let trace_digest =
    Digest.string
      (String.concat "|"
         (List.map
            (fun (r : Pf_monitor.Capture.record) ->
              Printf.sprintf "%d:%s" r.Pf_monitor.Capture.timestamp
                (Packet.to_string r.Pf_monitor.Capture.frame))
            trace))
  in
  ( Engine.now eng,
    Engine.events_processed eng,
    Pf_sim.Stats.pairs (Host.stats a),
    Pf_sim.Stats.pairs (Host.stats b),
    trace_digest )

let test_identical_runs () =
  let t1, e1, sa1, sb1, d1 = fingerprint ~seed:2024 in
  let t2, e2, sa2, sb2, d2 = fingerprint ~seed:2024 in
  Alcotest.(check int) "same final clock" t1 t2;
  Alcotest.(check int) "same event count" e1 e2;
  Alcotest.(check (list (pair string int))) "same stats on a" sa1 sa2;
  Alcotest.(check (list (pair string int))) "same stats on b" sb1 sb2;
  Alcotest.(check string) "same capture digest" (Digest.to_hex d1) (Digest.to_hex d2)

let test_different_seed_differs () =
  let _, _, _, _, d1 = fingerprint ~seed:1 in
  let _, _, _, _, d2 = fingerprint ~seed:2 in
  Alcotest.(check bool) "different seed, different run" false (d1 = d2)

(* {1 Substrate odds and ends} *)

let test_cpu_accounting () =
  let cpu = Pf_sim.Cpu.create Pf_sim.Costs.microvax_ii in
  let _ = Pf_sim.Cpu.run cpu ~owner:(`Proc 1) ~start:0 ~cost:300 in
  let _ = Pf_sim.Cpu.run cpu ~owner:(`Proc 2) ~start:500 ~cost:100 in
  (* 300 + (400 switch + 100) busy in a 1000us window. *)
  Alcotest.(check int) "busy time" 800 (Pf_sim.Cpu.busy_time cpu);
  Alcotest.(check int) "idle time" 200 (Pf_sim.Cpu.idle_since cpu ~start:0 ~now:1000)

let test_time_pp () =
  Alcotest.(check string) "ms formatting" "1.57ms"
    (Format.asprintf "%a" Pf_sim.Time.pp 1570)

let test_packet_pp () =
  let s = Format.asprintf "%a" Packet.pp (Packet.of_string "abcdefghijkl") in
  Alcotest.(check bool) ("summary has length: " ^ s) true (Testutil.contains s "12B");
  Alcotest.(check bool) "summary elides" true (Testutil.contains s "...")

let test_stats_derive () =
  let module Stats = Pf_sim.Stats in
  let s = Stats.create () in
  let a = ref None and b = ref None in
  Stats.incr s "pushed" ~by:0;
  Stats.derive s "derived" (fun () -> !a);
  Stats.derive s "derived" (fun () -> !b);
  Alcotest.(check (list (pair string int))) "absent until a derivation exists"
    [ ("pushed", 0) ] (Stats.pairs s);
  a := Some 0;
  Alcotest.(check (list (pair string int))) "present at zero"
    [ ("derived", 0); ("pushed", 0) ] (Stats.pairs s);
  a := Some 3;
  b := Some 4;
  Alcotest.(check int) "derivations sum" 7 (Stats.get s "derived");
  Alcotest.check_raises "a derived key has no pusher"
    (Invalid_argument "Stats.incr: derived key derived") (fun () -> Stats.incr s "derived");
  Alcotest.check_raises "a pushed key cannot be derived"
    (Invalid_argument "Stats.derive: pushed key pushed") (fun () ->
      Stats.derive s "pushed" (fun () -> None))

let test_engine_pending () =
  let eng = Engine.create () in
  Engine.schedule eng ~at:10 ignore;
  Engine.schedule eng ~at:20 ignore;
  Alcotest.(check int) "two pending" 2 (Engine.pending eng);
  Engine.run eng;
  Alcotest.(check int) "none pending" 0 (Engine.pending eng);
  Alcotest.(check int) "processed" 2 (Engine.events_processed eng)

let suite =
  ( "determinism",
    [
      Alcotest.test_case "identical seeded runs" `Quick test_identical_runs;
      Alcotest.test_case "different seeds differ" `Quick test_different_seed_differs;
      Alcotest.test_case "cpu accounting" `Quick test_cpu_accounting;
      Alcotest.test_case "time pp" `Quick test_time_pp;
      Alcotest.test_case "packet pp" `Quick test_packet_pp;
      Alcotest.test_case "stats derived keys" `Quick test_stats_derive;
      Alcotest.test_case "engine pending" `Quick test_engine_pending;
    ] )

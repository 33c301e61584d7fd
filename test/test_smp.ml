(* The N-CPU simulated kernel: receive-side steering, per-CPU flow
   caches, the delivery lock, and cross-CPU invalidation. *)

open Pf_kernel
module Engine = Pf_sim.Engine
module Smp = Pf_sim.Smp
module Stats = Pf_sim.Stats
module Addr = Pf_net.Addr
module Frame = Pf_net.Frame
module Gen = Pf_monitor.Traffic.Gen

let set_filter_exn port program =
  match Pfdev.set_filter port program with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%a" Pfdev.pp_install_error e)

(* One host on a 10Mb segment with [ncpus] receive CPUs (via the RSS
   path; [None] is the legacy single-CPU host). *)
let mk_host ?ncpus () =
  let eng = Engine.create () in
  let link = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
  let h =
    Host.create ~costs:Pf_sim.Costs.microvax_ii ?ncpus link ~name:"rx"
      ~addr:(Addr.eth_host 2)
  in
  (eng, h)

(* Install one port per generated flow (descending, as the benches do),
   drain the setup events, inject [k] drawn packets, run to completion. *)
let drive ?ncpus ~seed ~flows ~skew ~packets () =
  let eng, h = mk_host ?ncpus () in
  let pf = Host.pf h in
  let gen = Gen.make ~seed ~flows ~skew () in
  for i = flows - 1 downto 0 do
    let p = Pfdev.open_port pf in
    set_filter_exn p (Gen.filter (Gen.flow gen i));
    Pfdev.set_queue_limit p packets
  done;
  Engine.run eng;
  List.iter (fun f -> Host.inject h (Gen.frame f)) (Gen.sequence gen packets);
  Engine.run eng;
  (eng, h, pf)

(* Every counter view reads the same per-CPU counters: on a host, each
   ["pf.*"] key equals the sum over the host's devices of the matching
   [cache_stats] / [dispatch_stats] / [smp_stats] field. *)
let check_views name stats devices =
  let sum f = List.fold_left (fun acc pf -> acc + f pf) 0 devices in
  let per_cpu f pf =
    List.fold_left (fun acc c -> acc + f c) 0 (Pfdev.smp_stats pf).Pfdev.per_cpu
  in
  let cache f pf = f (Pfdev.cache_stats pf) and dispatch f pf = f (Pfdev.dispatch_stats pf) in
  let ncpus = match devices with pf :: _ -> Pfdev.ncpus pf | [] -> 1 in
  let cpu_keys =
    if ncpus = 1 then []
    else
      List.init ncpus (fun k ->
          ( Printf.sprintf "pf.smp.cpu%d.packets" k,
            per_cpu (fun c -> if c.Pfdev.cpu = k then c.Pfdev.packets else 0) ))
  in
  List.iter
    (fun (key, view) ->
      Alcotest.(check int) (name ^ ": " ^ key) (sum view) (Stats.get stats key))
    ([
       ("pf.cache.hit", cache (fun c -> c.Pfdev.hits));
       ("pf.cache.miss", cache (fun c -> c.Pfdev.misses));
       ("pf.cache.bypass", cache (fun c -> c.Pfdev.bypasses));
       ("pf.cache.eviction", cache (fun c -> c.Pfdev.evictions));
       ("pf.dispatch.rebuild", dispatch (fun d -> d.Pfdev.rebuilds));
       ("pf.dispatch.update", dispatch (fun d -> d.Pfdev.updates));
       ("pf.dispatch.classify", dispatch (fun d -> d.Pfdev.classifies));
       ("pf.dispatch.exact_accept", dispatch (fun d -> d.Pfdev.exact_accepts));
       ("pf.dispatch.residual_run", dispatch (fun d -> d.Pfdev.residual_runs));
       ("pf.packets", per_cpu (fun c -> c.Pfdev.packets));
       ("pf.smp.lock_wait_us", per_cpu (fun c -> c.Pfdev.lock_wait_us));
       ("pf.smp.lock_contended", per_cpu (fun c -> c.Pfdev.lock_waits));
       ("pf.smp.lock_acquire", fun pf -> (Pfdev.smp_stats pf).Pfdev.lock_acquisitions);
     ]
    @ cpu_keys);
  List.iter
    (fun pf ->
      let c = Pfdev.cache_stats pf in
      Alcotest.(check (pair int int))
        (name ^ ": per-CPU cache counters sum to the device's")
        (c.Pfdev.hits, c.Pfdev.misses)
        (per_cpu (fun c -> c.Pfdev.cache_hits) pf, per_cpu (fun c -> c.Pfdev.cache_misses) pf))
    devices

let test_views_agree () =
  List.iter
    (fun (d : Stats_drives.drive) ->
      check_views d.Stats_drives.name (Host.stats d.Stats_drives.host) d.Stats_drives.devices)
    (Stats_drives.all ())

(* [Host.rx] counts into typed fields as well: every received frame is
   demultiplexed once on one of the host's devices, an unclaimed frame is
   exactly a device no-match, and the driver time is one [recv_interrupt]
   per frame. The keys are derived, so a push by name raises. *)
let test_host_rx_keys () =
  List.iter
    (fun (d : Stats_drives.drive) ->
      let stats = Host.stats d.Stats_drives.host in
      let get = Stats.get stats and name = d.Stats_drives.name in
      let packets pf =
        List.fold_left (fun acc c -> acc + c.Pfdev.packets) 0 (Pfdev.smp_stats pf).Pfdev.per_cpu
      in
      Alcotest.(check int) (name ^ ": host.rx is the frames demultiplexed")
        (List.fold_left (fun acc pf -> acc + packets pf) 0 d.Stats_drives.devices)
        (get "host.rx");
      Alcotest.(check int) (name ^ ": host.rx.unclaimed is the no-matches")
        (get "pf.drop.nomatch") (get "host.rx.unclaimed");
      Alcotest.(check int) (name ^ ": host.interrupt_cpu_us")
        (get "host.rx" * (Host.costs d.Stats_drives.host).Pf_sim.Costs.recv_interrupt)
        (get "host.interrupt_cpu_us");
      Alcotest.check_raises (name ^ ": host.rx is derived")
        (Invalid_argument "Stats.incr: derived key host.rx") (fun () -> Stats.incr stats "host.rx"))
    (Stats_drives.all ())

(* {1 Determinism: same seed, byte-identical stats at 4 CPUs} *)

let test_determinism_4cpu () =
  let run () =
    let _, h, pf =
      drive ~ncpus:4 ~seed:0xD373 ~flows:24 ~skew:(Gen.Zipf 1.1) ~packets:600 ()
    in
    (Stats.pairs (Host.stats h), Pfdev.smp_stats pf)
  in
  let s1, smp1 = run () in
  let s2, smp2 = run () in
  Alcotest.(check (list (pair string int))) "device stats replay exactly" s1 s2;
  Alcotest.(check bool) "per-CPU stats replay exactly" true (smp1 = smp2);
  Alcotest.(check bool) "all four CPUs saw traffic" true
    (List.for_all
       (fun (c : Pfdev.smp_cpu_stats) -> c.Pfdev.packets > 0)
       smp1.Pfdev.per_cpu)

(* {1 Steering: same flow, same CPU} *)

let test_same_flow_same_cpu () =
  List.iter
    (fun seed ->
      let eng, h = mk_host ~ncpus:4 () in
      let pf = Host.pf h in
      let gen = Gen.make ~seed ~flows:32 ~skew:Gen.Uniform () in
      for i = 31 downto 0 do
        let p = Pfdev.open_port pf in
        set_filter_exn p (Gen.filter (Gen.flow gen i));
        Pfdev.set_queue_limit p 10_000
      done;
      Engine.run eng;
      (* Every packet of one flow must hash to that flow's CPU — steering
         is a pure function of the flow's key bytes. *)
      List.iter
        (fun f ->
          let cpu = Pfdev.steer pf (Gen.frame f) in
          Alcotest.(check bool) "cpu in range" true
            (cpu >= 0 && cpu < Pfdev.ncpus pf);
          for _ = 1 to 3 do
            Alcotest.(check int) "steering is stable" cpu
              (Pfdev.steer pf (Gen.frame f))
          done)
        (Gen.flows gen);
      (* And the end-to-end path must agree: inject a mix, then check every
         packet landed on the CPU the hash names. *)
      let counts = Array.make 4 0 in
      List.iter
        (fun f ->
          let cpu = Pfdev.steer pf (Gen.frame f) in
          counts.(cpu) <- counts.(cpu) + 1;
          Host.inject h (Gen.frame f))
        (Gen.sequence gen 400);
      Engine.run eng;
      let smp = Pfdev.smp_stats pf in
      List.iter
        (fun (c : Pfdev.smp_cpu_stats) ->
          Alcotest.(check int)
            (Printf.sprintf "cpu %d demuxed exactly its steered share" c.Pfdev.cpu)
            counts.(c.Pfdev.cpu) c.Pfdev.packets)
        smp.Pfdev.per_cpu)
    [ 0xF10; 0xF11; 0xF12 ]

(* {1 Mutation invalidates every per-CPU cache} *)

let test_mutations_invalidate_all_cpus () =
  let ncpus = 4 in
  let mutate_with name mutate =
    let eng, h = mk_host ~ncpus () in
    let pf = Host.pf h in
    let gen = Gen.make ~seed:0xCAFE ~flows:8 ~skew:Gen.Uniform () in
    let ports =
      List.map
        (fun f ->
          let p = Pfdev.open_port pf in
          set_filter_exn p (Gen.filter f);
          Pfdev.set_queue_limit p 10_000;
          p)
        (Gen.flows gen)
    in
    Engine.run eng;
    (* Warm every CPU's private cache. *)
    List.iter (fun f -> Host.inject h (Gen.frame f)) (Gen.sequence gen 200);
    Engine.run eng;
    let warm = Pfdev.cache_stats pf in
    Alcotest.(check bool) (name ^ ": caches warmed") true (warm.Pfdev.hits > 0);
    let inval0 = warm.Pfdev.invalidations in
    let ipis0 = Smp.total_ipis (Host.smp h) in
    mutate pf (List.hd ports) gen;
    Engine.run eng;
    let after = Pfdev.cache_stats pf in
    (* One device-level event flushes all [ncpus] private caches... *)
    Alcotest.(check int)
      (name ^ ": every per-CPU cache flushed")
      (inval0 + ncpus) after.Pfdev.invalidations;
    (* ...broadcast to the other CPUs as costed IPIs. *)
    Alcotest.(check int)
      (name ^ ": one IPI per remote CPU")
      (ipis0 + (ncpus - 1))
      (Smp.total_ipis (Host.smp h));
    (* No CPU answers from a stale entry afterwards: re-inject, recount. *)
    let misses0 = after.Pfdev.misses in
    List.iter (fun f -> Host.inject h (Gen.frame f)) (Gen.sequence gen 8);
    Engine.run eng;
    Alcotest.(check bool)
      (name ^ ": first packet after mutation misses")
      true
      ((Pfdev.cache_stats pf).Pfdev.misses > misses0)
  in
  mutate_with "set_filter" (fun _ p gen ->
      set_filter_exn p (Gen.filter ~priority:1 (Gen.flow gen 0)));
  mutate_with "install" (fun _ p gen ->
      match Pfdev.install p (Gen.filter (Gen.flow gen 0)) with
      | Ok _ -> ()
      | Error e -> Alcotest.fail (Format.asprintf "%a" Pfdev.pp_install_error e));
  mutate_with "set_priority" (fun _ p _ -> Pfdev.set_priority p 9)

(* {1 1-CPU SMP parity with the legacy path} *)

let test_one_cpu_parity () =
  let run ncpus =
    let _, h, _ =
      drive ?ncpus ~seed:0x9A21 ~flows:16 ~skew:(Gen.Zipf 1.2) ~packets:500 ()
    in
    Stats.pairs (Host.stats h)
  in
  Alcotest.(check (list (pair string int)))
    "1-CPU SMP host reproduces the legacy host's counters exactly"
    (run None) (run (Some 1))

let test_no_smp_keys_on_one_cpu () =
  let _, h, _ =
    drive ~ncpus:1 ~seed:0x9A21 ~flows:16 ~skew:Gen.Uniform ~packets:300 ()
  in
  List.iter
    (fun (k, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "no %s on a single-CPU device" k)
        false
        (String.length k >= 7 && String.sub k 0 7 = "pf.smp."))
    (Stats.pairs (Host.stats h))

(* {1 The delivery lock contends under simultaneous arrivals} *)

let test_delivery_lock_contention () =
  (* Two flows steered to different CPUs, their packets injected at the
     same instant over and over: both CPUs finish classification together
     and collide on the shared delivery lock. *)
  let eng, h = mk_host ~ncpus:2 () in
  let pf = Host.pf h in
  let gen = Gen.make ~seed:0x10CC ~flows:16 ~skew:Gen.Uniform () in
  List.iter
    (fun f ->
      let p = Pfdev.open_port pf in
      set_filter_exn p (Gen.filter f);
      Pfdev.set_queue_limit p 10_000)
    (Gen.flows gen);
  Engine.run eng;
  let on_cpu k =
    List.find (fun f -> Pfdev.steer pf (Gen.frame f) = k) (Gen.flows gen)
  in
  let f0 = on_cpu 0 and f1 = on_cpu 1 in
  (* Warm both private caches first so each round's classification costs
     the same on both CPUs — then paired arrivals finish classification at
     the same instant and collide on the lock every time. *)
  Host.inject h (Gen.frame f0);
  Host.inject h (Gen.frame f1);
  Engine.run eng;
  for _ = 1 to 50 do
    Host.inject h (Gen.frame f0);
    Host.inject h (Gen.frame f1);
    Engine.run eng
  done;
  let smp = Pfdev.smp_stats pf in
  Alcotest.(check int) "every delivery took the lock" 102
    smp.Pfdev.lock_acquisitions;
  Alcotest.(check bool) "simultaneous arrivals contended" true
    (smp.Pfdev.lock_contended >= 50);
  Alcotest.(check bool) "contended waits accumulated spin time" true
    (smp.Pfdev.lock_wait_total_us > 0)

(* {1 Per-CPU dispatch automata} *)

let test_per_cpu_dispatch () =
  let eng, h = mk_host ~ncpus:4 () in
  let pf = Host.pf h in
  Pfdev.set_strategy pf `Dispatch;
  let gen =
    Gen.make ~blend:[ (Gen.Pup, 1.) ] ~seed:0xD15 ~flows:64 ~skew:Gen.Uniform ()
  in
  let ports =
    List.map
      (fun f ->
        let p = Pfdev.open_port pf in
        set_filter_exn p (Gen.filter f);
        Pfdev.set_queue_limit p 10_000;
        p)
      (Gen.flows gen)
  in
  Engine.run eng;
  Pfdev.set_cache_enabled pf false;
  let accepted = ref 0 in
  let seq = Gen.sequence gen 800 in
  List.iter (fun f -> Host.inject h (Gen.frame f)) seq;
  Engine.run eng;
  accepted := Stats.get (Host.stats h) "pf.accepted";
  Alcotest.(check int) "automaton classifies correctly on every CPU" 800 !accepted;
  let ds = Pfdev.dispatch_stats pf in
  Alcotest.(check int) "automaton classified every packet" 800
    ds.Pfdev.classifies;
  (* One lazy rebuild per CPU: each CPU owns a private automaton instance
     and compiles it on its own first packet. *)
  Alcotest.(check int) "one automaton rebuild per CPU" (Pfdev.ncpus pf)
    ds.Pfdev.rebuilds;
  (* A port mutation updates every CPU's automaton in place, and each then
     equals a fresh build. *)
  Pfdev.close_port (List.hd ports);
  set_filter_exn (List.nth ports 1) (Gen.filter ~priority:1 (Gen.flow gen 1));
  let ds = Pfdev.dispatch_stats pf in
  Alcotest.(check (pair int int)) "two updates per CPU, no rebuild"
    (Pfdev.ncpus pf, 2 * Pfdev.ncpus pf)
    (ds.Pfdev.rebuilds, ds.Pfdev.updates);
  let decisions d =
    List.map
      (fun (r, p, dec) ->
        Format.asprintf "%d %d %a" r (Pfdev.port_id p) Pf_filter.Dispatch.pp_decision dec)
      (Pf_filter.Dispatch.decisions d)
  in
  let fresh = decisions (Pfdev.For_testing.fresh_dispatch pf) in
  for cpu = 0 to Pfdev.ncpus pf - 1 do
    match Pfdev.For_testing.dispatch pf ~cpu with
    | Some d ->
      Alcotest.(check (list string))
        (Printf.sprintf "cpu%d automaton equals a fresh build" cpu)
        fresh (decisions d)
    | None -> Alcotest.failf "cpu%d automaton was marked dirty" cpu
  done

(* {1 The generator's filters match exactly their own flows} *)

let test_gen_filters_exact () =
  let gen =
    Gen.make ~seed:0x6E6 ~flows:24 ~skew:Gen.Uniform ()
  in
  List.iter
    (fun f ->
      match Pf_filter.Validate.check (Gen.filter f) with
      | Error e ->
        Alcotest.failf "flow %d (%s): invalid filter: %a" f.Gen.index
          (Gen.proto_name f.Gen.proto) Pf_filter.Validate.pp_error e
      | Ok v ->
        List.iter
          (fun g ->
            let payload =
              match Frame.decode Frame.Dix10 (Gen.frame g) with
              | Some (_, p) -> p
              | None -> Alcotest.failf "flow %d: undecodable frame" g.Gen.index
            in
            ignore payload;
            Alcotest.(check bool)
              (Printf.sprintf "filter %d vs frame %d" f.Gen.index g.Gen.index)
              (f.Gen.index = g.Gen.index)
              (Pf_filter.Interp.accepts (Pf_filter.Validate.program v)
                 (Gen.frame g)))
          (Gen.flows gen))
    (Gen.flows gen)

(* {1 The work-record identity}

   Every simulated microsecond demux charges is a priced field of its work
   record: per packet, the CPU time the call consumed equals [Pfdev.price]
   of [Pfdev.last_work] (plus the ipi_send of any invalidation broadcast a
   busier-first reorder set off), and the records sum to
   "pf.demux_cpu_us". Checked across every strategy, cache setting, CPU
   count and walk engine, on a mixed generator load with a copy-all tap
   port, uninstalled flows and kernel-claimed frames. *)

let test_work_record_identity () =
  let costs = Pf_sim.Costs.microvax_ii in
  let run ~strategy ~cache ~ncpus ~compile =
    let name =
      Printf.sprintf "%s/cache %b/%d cpu/%s"
        (match strategy with `Sequential -> "sequential" | `Dispatch -> "dispatch")
        cache ncpus
        (match compile with `Off -> "stack" | `Regvm | `Regvm_super -> "regvm")
    in
    let eng, h = mk_host ~ncpus () in
    let pf = Host.pf h in
    Pfdev.set_strategy pf strategy;
    Pfdev.set_cache_enabled pf cache;
    Pfdev.set_compile_strategy pf compile;
    let gen = Gen.make ~seed:0x3D6E ~flows:20 ~skew:(Gen.Zipf 1.0) () in
    let monitor = Pfdev.open_port pf in
    set_filter_exn monitor
      (Pf_filter.Program.with_priority (Pf_filter.Predicates.ethertype_is 0x0800) 50);
    Pfdev.set_copy_all monitor true;
    Pfdev.set_tap monitor true;
    Pfdev.set_timestamps monitor true;
    Pfdev.set_queue_limit monitor 10_000;
    for i = 19 downto 0 do
      (* every fifth flow has no port: its packets match nothing *)
      if i mod 5 <> 4 then begin
        let p = Pfdev.open_port pf in
        set_filter_exn p (Gen.filter (Gen.flow gen i));
        Pfdev.set_queue_limit p 10_000
      end
    done;
    Engine.run eng;
    let smp = Host.smp h in
    let busy () =
      List.fold_left
        (fun acc k -> acc + Pf_sim.Cpu.busy_time (Smp.cpu smp k))
        0
        (List.init ncpus Fun.id)
    in
    let total = ref 0 and filters = ref 0 and mismatches = ref [] in
    List.iteri
      (fun i flow ->
        let frame = Gen.frame flow in
        let busy0 = busy () and ipis0 = Smp.total_ipis smp in
        ignore
          (Pfdev.demux pf ~cpu:(Pfdev.steer pf frame) ~kernel_claimed:(i mod 7 = 3)
             frame
            : bool);
        let w = Pfdev.last_work pf in
        let priced = Pfdev.price costs w in
        let expected =
          priced + ((Smp.total_ipis smp - ipis0) * costs.Pf_sim.Costs.ipi_send)
        in
        let charged = busy () - busy0 in
        if charged <> expected then mismatches := (i, expected, charged) :: !mismatches;
        total := !total + priced;
        filters := !filters + w.Pfdev.filters_run)
      (Gen.sequence gen 600);
    Engine.run eng;
    Alcotest.(check (list (triple int int int)))
      (name ^ ": every packet charged its priced record (packet, priced, charged)")
      [] (List.rev !mismatches);
    Alcotest.(check int)
      (name ^ ": records sum to pf.demux_cpu_us")
      (Stats.get (Host.stats h) "pf.demux_cpu_us")
      !total;
    Alcotest.(check int)
      (name ^ ": records sum to pf.filters_tested")
      (Stats.get (Host.stats h) "pf.filters_tested")
      !filters;
    check_views name (Host.stats h) [ pf ]
  in
  List.iter
    (fun strategy ->
      List.iter
        (fun cache ->
          List.iter
            (fun ncpus ->
              List.iter
                (fun compile -> run ~strategy ~cache ~ncpus ~compile)
                [ `Off; `Regvm ])
            [ 1; 2 ])
        [ false; true ])
    [ `Sequential; `Dispatch ]

let suite =
  ( "smp",
    [
      Alcotest.test_case "4-CPU run replays byte-identical" `Quick
        test_determinism_4cpu;
      Alcotest.test_case "same flow always steers to the same CPU" `Quick
        test_same_flow_same_cpu;
      Alcotest.test_case "mutations invalidate every per-CPU cache (+IPIs)" `Quick
        test_mutations_invalidate_all_cpus;
      Alcotest.test_case "1-CPU SMP matches the legacy path exactly" `Quick
        test_one_cpu_parity;
      Alcotest.test_case "no pf.smp.* keys on a single CPU" `Quick
        test_no_smp_keys_on_one_cpu;
      Alcotest.test_case "delivery lock contends under simultaneous arrivals"
        `Quick test_delivery_lock_contention;
      Alcotest.test_case "dispatch automaton instances are per-CPU" `Quick
        test_per_cpu_dispatch;
      Alcotest.test_case "generator filters accept exactly their own flow" `Quick
        test_gen_filters_exact;
      Alcotest.test_case "demux charges exactly its priced work records" `Quick
        test_work_record_identity;
      Alcotest.test_case "counter views and pf.* keys agree" `Quick test_views_agree;
      Alcotest.test_case "host receive keys derive from its counters" `Quick
        test_host_rx_keys;
    ] )

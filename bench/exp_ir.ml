(* The register-IR compile strategies on the paper's §6 filter mix.

   The same sixteen-port skewed traffic mix as the flow-cache experiment
   (one pup_dst_port_10mb filter per port, 90% of packets to three hot
   sockets at the end of the priority walk), but with the cache disabled so
   the engines themselves are what is measured: every packet pays the full
   sequential walk under each of the two compile strategies —

     off        interpret the stack programs as installed (the baseline
                every previous experiment used),
     regvm      execute the optimized register IR directly, at the
                register-VM cost model.

   A second table gates the whole paper filter corpus statically: for each
   filter, the register VM's worst-case microseconds must not exceed the
   stack walk's. Either regression fails the run — that is the CI
   criterion this experiment exists for.

   A third table prices install-time certification in host wall clock:
   over 2,000 and 10,000 Traffic.Gen filters, Regvm.compile plus
   certification through one shape memo (as a device holds it) must take
   at most 1.2x Regvm.compile alone. *)

open Util
module Pfdev = Pf_kernel.Pfdev
module Filter = Pf_filter
module Gen = Pf_monitor.Traffic.Gen

let n_ports = 16
let n_packets = 2_000
let hot = 3

let socket_of_index i = Int32.of_int (100 + i)
let target i = if i mod 10 < 9 then n_ports - hot + (i mod hot) else i mod (n_ports - hot)

type result = { demux_us_per_packet : float; accepted : int }

let run_mix strategy =
  let world = dix_world ~costs_a:Pf_sim.Costs.free () in
  let pf = Host.pf world.b in
  Pfdev.set_cache_enabled pf false;
  Pfdev.set_compile_strategy pf strategy;
  List.iter
    (fun i ->
      let p = Pfdev.open_port pf in
      set_filter_exn p (Filter.Predicates.pup_dst_port_10mb ~host:2 (socket_of_index i));
      Pfdev.set_queue_limit p n_packets)
    (List.init n_ports Fun.id);
  let frames =
    Array.init n_ports (fun i ->
        sized_frame ~src:(Host.addr world.a) ~dst:(Host.addr world.b)
          ~socket:(socket_of_index i) ~total:128)
  in
  let accepted = ref 0 in
  for i = 0 to n_packets - 1 do
    if Pfdev.demux pf frames.(target i) then incr accepted
  done;
  Engine.run world.engine;
  {
    demux_us_per_packet =
      float_of_int (Pf_sim.Stats.get (Host.stats world.b) "pf.demux_cpu_us")
      /. float_of_int n_packets;
    accepted = !accepted;
  }

(* Worst-case corpus costs, in the same microsecond model the demux path
   charges: the stack walk pays filter_apply + max_insns * filter_insn, the
   register VM regvm_apply + |optimized IR| * regvm_insn. *)
let corpus =
  [ ("fig-3-8", Filter.Predicates.fig_3_8);
    ("fig-3-9", Filter.Predicates.fig_3_9);
    ("pup-type-is-1", Filter.Predicates.pup_type_is 1);
    ("pup-dst-socket-35", Filter.Predicates.pup_dst_socket 35l);
    ("pup-dst-port", Filter.Predicates.pup_dst_port ~host:2 35l);
    ("pup-dst-port-10mb", Filter.Predicates.pup_dst_port_10mb ~host:2 35l);
    ("ethertype-ip", Filter.Predicates.ethertype_is 0x0800);
    ("udp-dst-port-53", Filter.Predicates.udp_dst_port 53);
    ("udp-dst-port-any-ihl-53", Filter.Predicates.udp_dst_port_any_ihl 53);
    ("vmtp-dst-entity", Filter.Predicates.vmtp_dst_entity 0x1234l);
    ("rarp-request", Filter.Predicates.rarp_request ())
  ]

let corpus_gate () =
  let costs = Pf_sim.Costs.microvax_ii in
  let rows, failures =
    List.fold_left
      (fun (rows, failures) (name, program) ->
        match Filter.Validate.check program with
        | Error _ -> (rows, failures)
        | Ok v ->
          let a = Filter.Analysis.analyze v in
          let vm = Filter.Regvm.compile v in
          let stack_us =
            costs.Pf_sim.Costs.filter_apply
            + (a.Filter.Analysis.max_insns * costs.Pf_sim.Costs.filter_insn)
          in
          let regvm_us =
            costs.Pf_sim.Costs.regvm_apply
            + (Filter.Ir.instr_count (Filter.Regvm.ir vm) * costs.Pf_sim.Costs.regvm_insn)
          in
          let row =
            { metric = name;
              paper = Printf.sprintf "%d uSec" stack_us;
              ours = Printf.sprintf "%d uSec" regvm_us }
          in
          let failures =
            if regvm_us > stack_us then
              Printf.sprintf "%s: regvm %d > %d uSec" name regvm_us stack_us :: failures
            else failures
          in
          (row :: rows, failures))
      ([], []) corpus
  in
  print_table
    ~title:"Register IR: worst-case corpus costs (original vs optimized)"
    ~note:
      "note: 'paper' column = original stack program's worst-case walk;\n\
       'ours' = register-VM worst case. The gate fails if the register VM\n\
       costs more than the stack walk anywhere in the corpus."
    (List.rev rows);
  failures

(* {1 Certification overhead}

   Each filter is compiled plainly and then compiled and certified, the
   two timed back to back, so the garbage collector and the machine weigh
   on both alike; the gate compares the medians. The memo starts empty, so
   the proofs of the first filter of each shape are among the samples. *)

let certify_limit = 1.2

type certify_cost = {
  plain_us : float;
  certified_us : float;
  shapes : int; (* shape-table entries: one proof attempt each *)
  shape_hits : int;
  not_certified : int;
}

let certify_cost ~n =
  let gen = Gen.make ~seed:!run_seed ~flows:n ~skew:Gen.Uniform () in
  let validated =
    Array.init n (fun i ->
        match Filter.Validate.check (Gen.filter (Gen.flow gen i)) with
        | Ok v -> v
        | Error e -> failwith (Format.asprintf "%a" Filter.Validate.pp_error e))
  in
  let memo = Filter.Equiv.Memo.create () in
  let not_certified = ref 0 in
  Gc.full_major ();
  let samples =
    Array.map
      (fun v ->
        let t0 = Monotonic_clock.now () in
        ignore (Filter.Regvm.compile v : Filter.Regvm.t);
        let t1 = Monotonic_clock.now () in
        let _, c = Filter.Regvm.compile_certified ~memo v in
        let t2 = Monotonic_clock.now () in
        if c <> Filter.Equiv.Certified then incr not_certified;
        (Int64.sub t1 t0, Int64.sub t2 t1))
      validated
  in
  let median f =
    let a = Array.map f samples in
    Array.sort Int64.compare a;
    Int64.to_float a.(n / 2) /. 1e3
  in
  { plain_us = median fst;
    certified_us = median snd;
    shapes = Filter.Equiv.Memo.size memo;
    shape_hits = Filter.Equiv.Memo.shape_hits memo;
    not_certified = !not_certified }

let certify_gate () =
  let costs = List.map (fun n -> (n, certify_cost ~n)) [ 2_000; 10_000 ] in
  print_table
    ~title:"Install-time certification: Regvm.compile vs compile + certify (host us, median)"
    ~note:
      "note: 'paper' column = Regvm.compile alone; 'ours' = compile plus
       certification through one shape memo. The gate fails above 1.2x."
    (List.map
       (fun (n, c) ->
         { metric = Printf.sprintf "%d Gen filters (%d shapes, %d memo hits)" n
             c.shapes c.shape_hits;
           paper = Printf.sprintf "%.2f us" c.plain_us;
           ours =
             Printf.sprintf "%.2f us (%.2fx)" c.certified_us
               (c.certified_us /. c.plain_us) })
       costs);
  List.concat_map
    (fun (n, c) ->
      let ratio = c.certified_us /. c.plain_us in
      record_metric (Printf.sprintf "ir_certify_ratio_%d" n) ratio;
      record_metric (Printf.sprintf "ir_certify_shapes_%d" n) (float_of_int c.shapes);
      (if ratio > certify_limit then
         [ Printf.sprintf "certified compile %.2fx plain at %d filters (%.2f vs %.2f us); need <= %.1fx"
             ratio n c.certified_us c.plain_us certify_limit ]
       else [])
      @
      if c.not_certified > 0 then
        [ Printf.sprintf "%d of %d Gen filters not certified" c.not_certified n ]
      else [])
    costs

let run () =
  let off = run_mix `Off in
  let regvm = run_mix `Regvm in
  if off.accepted <> n_packets || regvm.accepted <> n_packets then
    failwith
      (Printf.sprintf "ir mix: accepted %d/%d of %d packets" off.accepted
         regvm.accepted n_packets);
  let reduction b = 100. *. (off.demux_us_per_packet -. b) /. off.demux_us_per_packet in
  print_table
    ~title:
      (Printf.sprintf
         "Register IR: compile strategies on the skewed mix (%d ports, %d packets, cache off)"
         n_ports n_packets)
    ~note:
      "note: same traffic as the flow-cache experiment; with the cache\n\
       disabled the engine cost is the whole interrupt path."
    [
      { metric = "demux CPU/packet, stack (off)"; paper = "n/a";
        ours = Printf.sprintf "%.0f uSec" off.demux_us_per_packet };
      { metric = "demux CPU/packet, regvm"; paper = "n/a";
        ours = Printf.sprintf "%.0f uSec" regvm.demux_us_per_packet };
      { metric = "reduction, regvm vs stack"; paper = "n/a";
        ours = Printf.sprintf "%.1f%%" (reduction regvm.demux_us_per_packet) };
    ];
  record_metric "ir_demux_us_per_packet_stack" off.demux_us_per_packet;
  record_metric "ir_demux_us_per_packet_regvm" regvm.demux_us_per_packet;
  record_metric "ir_reduction_regvm_pct" (reduction regvm.demux_us_per_packet);
  let corpus_failures = corpus_gate () in
  record_metric "ir_corpus_filters" (float_of_int (List.length corpus));
  record_metric "ir_corpus_regressions" (float_of_int (List.length corpus_failures));
  let certify_failures = certify_gate () in
  (* The CI regression gate: optimized must never cost more than
     unoptimized — on the mix or anywhere in the corpus. *)
  if regvm.demux_us_per_packet > off.demux_us_per_packet then
    failwith
      (Printf.sprintf "ir regression: regvm demux %.1f uSec/packet > stack %.1f"
         regvm.demux_us_per_packet off.demux_us_per_packet);
  (match corpus_failures with
  | [] -> ()
  | fs -> failwith ("ir corpus regression: " ^ String.concat "; " fs));
  match certify_failures with
  | [] -> ()
  | fs -> failwith ("ir certification overhead: " ^ String.concat "; " fs)

(* Demultiplexing at scale: the cross-filter dispatch automaton vs the
   linear walk, 10 to 10,000 installed ports.

   The paper's demultiplexer applies filters one by one, so its per-packet
   cost grows linearly in the number of open ports; the dispatch automaton
   (Pf_filter.Dispatch) groups every port watching the same guard words
   into one hash table, so classification costs one probe per *group*
   regardless of the port count. Here every port watches a distinct flow of
   an all-Pup mix from the shared traffic generator (Traffic.Gen) through
   the same filter shape — the many-users regime of the ROADMAP's north
   star — so the whole set collapses into a single two-word group and the
   curve should go flat.

   Two seeded mixes per port count: uniform (every flow equally likely)
   and skewed (90% of packets to 3 hot flows at the END of the walk — the
   sequential demultiplexer's worst case). Measured from the same counter
   the paper's tables use ("pf.demux_cpu_us" per packet), automaton vs
   walk, plus the automaton composed with the flow cache.

   The run *fails* — the CI smoke criterion — if the automaton is ever
   slower than the walk, if it is not >= 5x faster at 1,000 ports, if its
   own 10 -> 10,000 curve is not sublinear, or if one in-place port update
   (Dispatch.add + remove) or one port replacement on a device (close +
   open + set_filter) costs more than 2x as much host wall clock at 10,000
   installed flows as at 1,000. *)

open Util
module Pfdev = Pf_kernel.Pfdev
module Gen = Pf_monitor.Traffic.Gen

let port_counts = [ 10; 100; 1_000; 10_000 ]
let n_packets = 100 (* < 256: no busier-first reorder mid-measurement *)
let hot = 3

let skew_of = function
  | `Uniform -> Gen.Uniform
  | `Skewed -> Gen.Hot { hot; fraction = 0.9 }

type result = { us_per_packet : float; insns_per_packet : float }

let run_mix ~n ~mix ~strategy ~cache =
  let world = dix_world ~costs_a:Pf_sim.Costs.free () in
  let pf = Host.pf world.b in
  Pfdev.set_cache_enabled pf cache;
  Pfdev.set_strategy pf strategy;
  (* A fresh generator per run with the same seed: every strategy and
     cache setting sees the identical frame sequence. All-Pup blend, one
     filter shape, so the automaton indexes the set as one group.
     Descending open order puts the hot flows (the lowest indices) at the
     end of the walk. *)
  let gen =
    Gen.make ~blend:[ (Gen.Pup, 1.) ] ~seed:!run_seed ~flows:n
      ~skew:(skew_of mix) ()
  in
  for i = n - 1 downto 0 do
    let p = Pfdev.open_port pf in
    set_filter_exn p (Gen.filter (Gen.flow gen i));
    Pfdev.set_queue_limit p n_packets
  done;
  let accepted = ref 0 in
  List.iter
    (fun flow -> if Pfdev.demux pf (Gen.frame flow) then incr accepted)
    (Gen.sequence gen n_packets);
  Engine.run world.engine;
  if !accepted <> n_packets then
    failwith
      (Printf.sprintf "dispatch mix (n=%d): accepted %d of %d packets" n
         !accepted n_packets);
  let per name =
    float_of_int (Pf_sim.Stats.get (Host.stats world.b) name)
    /. float_of_int n_packets
  in
  { us_per_packet = per "pf.demux_cpu_us"; insns_per_packet = per "pf.filter_insns" }

let mix_name = function `Uniform -> "uniform" | `Skewed -> "skewed"

(* {1 Control-plane scaling}

   A port mutation costs the kernel one Dispatch.remove and one add on each
   built automaton. Time that pair in host wall clock (Bechamel's monotonic
   clock), as the median over many fresh Pup flows filed into and taken out
   of an automaton that already holds [n] flows of the same shape. The gate
   is on the 10k/1k ratio, so it holds on any machine. *)

let update_reps = 2_001
let update_pool = 64

let update_ns ~n =
  let gen =
    Gen.make ~blend:[ (Gen.Pup, 1.) ] ~seed:!run_seed ~flows:(n + update_pool)
      ~skew:Gen.Uniform ()
  in
  let compile i =
    match Pf_filter.Validate.check (Gen.filter (Gen.flow gen i)) with
    | Ok v -> Pf_filter.Fast.compile v
    | Error e -> failwith (Format.asprintf "%a" Pf_filter.Validate.pp_error e)
  in
  let d = Pf_filter.Dispatch.create () in
  for i = 0 to n - 1 do
    Pf_filter.Dispatch.add d ~rank:i (compile i) i
  done;
  let fresh = Array.init update_pool (fun k -> compile (n + k)) in
  let update r =
    let k = r mod update_pool in
    let t0 = Monotonic_clock.now () in
    Pf_filter.Dispatch.add d ~rank:(n + k) fresh.(k) (n + k);
    Pf_filter.Dispatch.remove d ~rank:(n + k);
    Int64.sub (Monotonic_clock.now ()) t0
  in
  for r = 1 to update_pool do
    ignore (update r : int64) (* warm-up *)
  done;
  let samples = Array.init update_reps update in
  Array.sort Int64.compare samples;
  Int64.to_float samples.(update_reps / 2)

(* The same scaling, end to end through the device: replace one port
   (close_port + open_port + set_filter) on a Dispatch + flow cache + Regvm
   device that holds [n] Pup flows and has built its automaton. This covers
   the port map, the read-set counts, the cache flush and the automaton
   refile together. Programs are generated outside the timed region, and
   the two sizes are sampled alternately, so the garbage collector and the
   machine weigh on both alike. *)

let replace_reps = 801

(* A device holding [n] flows, and a function that times one replacement. *)
let replacer ~n =
  let world = dix_world ~costs_a:Pf_sim.Costs.free () in
  let pf = Host.pf world.b in
  Pfdev.set_strategy pf `Dispatch;
  Pfdev.set_compile_strategy pf `Regvm;
  let flows = n + update_pool + replace_reps in
  let gen = Gen.make ~blend:[ (Gen.Pup, 1.) ] ~seed:!run_seed ~flows ~skew:Gen.Uniform () in
  let programs = Array.init flows (fun i -> Gen.filter (Gen.flow gen i)) in
  let ports = Queue.create () in
  let next = ref 0 in
  let open_next () =
    let p = Pfdev.open_port pf in
    set_filter_exn p programs.(!next);
    incr next;
    Queue.push p ports
  in
  for _ = 1 to n do
    open_next ()
  done;
  ignore (Pfdev.demux pf (Gen.frame (Gen.flow gen 0)) : bool);
  Engine.run world.engine;
  fun () ->
    let t0 = Monotonic_clock.now () in
    Pfdev.close_port (Queue.pop ports);
    open_next ();
    Int64.sub (Monotonic_clock.now ()) t0

let replace_us () =
  let small = replacer ~n:1_000 and large = replacer ~n:10_000 in
  for _ = 1 to update_pool do
    ignore (small () : int64);
    ignore (large () : int64) (* warm-up *)
  done;
  Gc.full_major ();
  let samples = Array.init replace_reps (fun _ -> (small (), large ())) in
  let median f =
    let a = Array.map f samples in
    Array.sort Int64.compare a;
    Int64.to_float a.(replace_reps / 2) /. 1e3
  in
  (median fst, median snd)

let run () =
  let gates = ref [] in
  let gate fmt = Printf.ksprintf (fun s -> gates := s :: !gates) fmt in
  let curves =
    List.map
      (fun mix ->
        let rows =
          List.map
            (fun n ->
              let linear = run_mix ~n ~mix ~strategy:`Sequential ~cache:false in
              let auto = run_mix ~n ~mix ~strategy:`Dispatch ~cache:false in
              record_metric
                (Printf.sprintf "dispatch_linear_us_n%d_%s" n (mix_name mix))
                linear.us_per_packet;
              record_metric
                (Printf.sprintf "dispatch_auto_us_n%d_%s" n (mix_name mix))
                auto.us_per_packet;
              if auto.us_per_packet > linear.us_per_packet then
                gate
                  "automaton slower than the linear walk at %d ports (%s): %.1f vs %.1f us"
                  n (mix_name mix) auto.us_per_packet linear.us_per_packet;
              (n, linear, auto))
            port_counts
        in
        (mix, rows))
      [ `Uniform; `Skewed ]
  in
  List.iter
    (fun (mix, rows) ->
      let speedup_at n =
        let _, linear, auto = List.find (fun (m, _, _) -> m = n) rows in
        linear.us_per_packet /. auto.us_per_packet
      in
      record_metric
        (Printf.sprintf "dispatch_speedup_n1000_%s" (mix_name mix))
        (speedup_at 1_000);
      if speedup_at 1_000 < 5. then
        gate "automaton only %.1fx faster at 1,000 ports (%s); need >= 5x"
          (speedup_at 1_000) (mix_name mix);
      let auto_at n =
        let _, _, auto = List.find (fun (m, _, _) -> m = n) rows in
        auto.us_per_packet
      in
      (* Sublinear curve: 1,000x more ports may not cost 8x more. *)
      if auto_at 10_000 > 8. *. auto_at 10 then
        gate "automaton curve not sublinear (%s): %.1f us at 10, %.1f us at 10,000 ports"
          (mix_name mix) (auto_at 10) (auto_at 10_000);
      print_table
        ~title:
          (Printf.sprintf
             "Dispatch automaton vs linear walk, %s mix (%d packets, us/packet)"
             (mix_name mix) n_packets)
        ~note:
          "every port watches a distinct Pup flow via the same filter \
           shape, so the automaton indexes the whole set as one group; \
           'linear' is the paper's sequential walk, cache off in both"
        (List.map
           (fun (n, linear, auto) ->
             {
               metric = Printf.sprintf "%5d ports (%.0f -> %.0f insns)" n
                   linear.insns_per_packet auto.insns_per_packet;
               paper = Printf.sprintf "%8.1f walk" linear.us_per_packet;
               ours =
                 Printf.sprintf "%8.1f auto (%4.1fx)" auto.us_per_packet
                   (linear.us_per_packet /. auto.us_per_packet);
             })
           rows))
    curves;
  (* Composing with the flow cache: the automaton classifies misses, the
     cache answers repeats — at 1,000 ports and a skewed mix the pair
     should beat either alone. *)
  let composed = run_mix ~n:1_000 ~mix:`Skewed ~strategy:`Dispatch ~cache:true in
  record_metric "dispatch_auto_cache_us_n1000_skewed" composed.us_per_packet;
  let auto_alone =
    let _, rows = List.find (fun (m, _) -> m = `Skewed) curves in
    let _, _, auto = List.find (fun (m, _, _) -> m = 1_000) rows in
    auto.us_per_packet
  in
  print_table
    ~title:"Dispatch automaton + flow cache (1,000 ports, skewed mix)"
    [
      { metric = "automaton, cache off"; paper = "";
        ours = Printf.sprintf "%8.1f us/packet" auto_alone };
      { metric = "automaton, cache on"; paper = "";
        ours = Printf.sprintf "%8.1f us/packet" composed.us_per_packet };
    ];
  if composed.us_per_packet > auto_alone then
    gate "flow cache on top of the automaton made demux slower: %.1f vs %.1f us"
      composed.us_per_packet auto_alone;
  let small = update_ns ~n:1_000 and large = update_ns ~n:10_000 in
  let ratio = large /. small in
  record_metric "dispatch_update_ns_n1000" small;
  record_metric "dispatch_update_ns_n10000" large;
  record_metric "dispatch_update_ratio_10k_1k" ratio;
  print_table
    ~title:"In-place automaton update: Dispatch.add + remove (host ns, median)"
    ~note:"gate: 10,000 entries may cost at most 2x what 1,000 do"
    [
      { metric = " 1,000 entries"; paper = ""; ours = Printf.sprintf "%8.0f ns" small };
      { metric = "10,000 entries"; paper = "";
        ours = Printf.sprintf "%8.0f ns (%.2fx)" large ratio };
    ];
  if ratio > 2. then
    gate "one automaton update costs %.2fx more at 10,000 entries than at 1,000 (%.0f vs %.0f ns); need <= 2x"
      ratio large small;
  let small, large = replace_us () in
  let ratio = large /. small in
  record_metric "dispatch_replace_us_n1000" small;
  record_metric "dispatch_replace_us_n10000" large;
  record_metric "dispatch_replace_ratio_10k_1k" ratio;
  print_table
    ~title:"Port replacement: close_port + open_port + set_filter (host us, median)"
    ~note:"Dispatch + flow cache + Regvm device; gate: 10,000 flows may cost at most 2x what 1,000 do"
    [
      { metric = " 1,000 flows"; paper = ""; ours = Printf.sprintf "%8.1f us" small };
      { metric = "10,000 flows"; paper = "";
        ours = Printf.sprintf "%8.1f us (%.2fx)" large ratio };
    ];
  if ratio > 2. then
    gate "one port replacement costs %.2fx more at 10,000 flows than at 1,000 (%.1f vs %.1f us); need <= 2x"
      ratio large small;
  match !gates with
  | [] -> ()
  | gs -> failwith ("dispatch bench regression:\n  " ^ String.concat "\n  " gs)

(* The stochastic superoptimizer's payoff, measured where it matters: the
   simulated demux CPU of the kernel's register-VM engine, per builtin
   filter, with and without the install-time search.

   Every builtin is installed twice on fresh single-port devices — compile
   strategy [`Regvm] (the certified pipeline alone: every install runs
   [Regopt.certify]) and [`Regvm_super]
   (pipeline + proof-gated MCMC search) — and both demultiplex the same
   deterministic packet mix (fixed-seed fuzz packets: overwhelmingly
   rejects, as on a real wire where most traffic is for someone else).
   Because the register VM charges per {e executed} IR instruction, the
   early exits the search rediscovers in the naive "blender" filters show
   up directly as demux microseconds.

   Gates (the CI criteria this experiment exists for):
     - never worse: no filter's demux CPU may exceed the [`Regvm] figure;
     - the win class exists: >= 25% of the corpus improves by >= 5%;
     - both strategies agree on every verdict.

   A second table sweeps the search budget and counts, at each budget, how
   many filters the search improves (by the static cost model) — the
   win-vs-budget curve that BENCH_superopt.json records. *)

open Util
module Pfdev = Pf_kernel.Pfdev
module Filter = Pf_filter
module Gen = Pf_fuzz.Gen

let n_packets = 400
let win_threshold_pct = 5.0

let corpus =
  List.filter
    (fun (_, p) -> Result.is_ok (Filter.Validate.check p))
    Filter.Predicates.builtins

let packets =
  lazy
    (let rng = Gen.Rng.make 0x5EED in
     List.init n_packets (fun _ -> fst (Gen.packet rng)))

let measure strategy program =
  let eng = Pf_sim.Engine.create () in
  let costs = Pf_sim.Costs.microvax_ii in
  let cpu = Pf_sim.Cpu.create costs in
  let stats = Pf_sim.Stats.create () in
  let dev =
    Pfdev.create eng cpu costs stats ~variant:Pf_net.Frame.Exp3
      ~address:(Pf_net.Addr.exp 1)
      ~send:(fun _ -> ())
  in
  Pfdev.set_cache_enabled dev false;
  Pfdev.set_compile_strategy dev strategy;
  let port = Pfdev.open_port dev in
  Pfdev.set_queue_limit port n_packets;
  (match Pfdev.set_filter port program with
  | Ok () -> ()
  | Error e ->
    failwith (Format.asprintf "superopt install: %a" Pfdev.pp_install_error e));
  let verdicts = List.map (fun pkt -> Pfdev.demux dev pkt) (Lazy.force packets) in
  Pf_sim.Engine.run eng;
  (float_of_int (Pf_sim.Stats.get stats "pf.demux_cpu_us"), verdicts)

let budget_curve () =
  let budgets = [ 50; 125; 250; 500 ] in
  let memo = Filter.Equiv.Memo.create () in
  let rows =
    List.map
      (fun budget ->
        let wins =
          List.fold_left
            (fun wins (_, program) ->
              match Filter.Validate.check program with
              | Error _ -> wins
              | Ok v ->
                let o =
                  Filter.Superopt.search ~budget ~seed:Filter.Superopt.default_seed
                    ~memo
                    (fst (Filter.Regopt.optimize v))
                in
                if o.Filter.Superopt.best_cost < o.Filter.Superopt.initial_cost
                then wins + 1
                else wins)
            0 corpus
        in
        record_metric (Printf.sprintf "superopt_wins_budget_%d" budget)
          (float_of_int wins);
        { metric = Printf.sprintf "filters improved, budget %d" budget;
          paper = "n/a";
          ours = Printf.sprintf "%d of %d" wins (List.length corpus) })
      budgets
  in
  print_table ~title:"Superoptimizer: win-vs-budget curve (static cost model)"
    ~note:
      "note: number of builtin filters whose searched program is strictly\n\
       cheaper than the certified pipeline output, per proposal budget;\n\
       fixed seed, shared equivalence memo."
    rows

let run () =
  let results =
    List.map
      (fun (name, program) ->
        let regvm_us, v_regvm = measure `Regvm program in
        let super_us, v_super = measure `Regvm_super program in
        if v_regvm <> v_super then
          failwith
            (Printf.sprintf "superopt: %s verdicts diverge between strategies"
               name);
        let reduction =
          if regvm_us > 0. then 100. *. (regvm_us -. super_us) /. regvm_us
          else 0.
        in
        (name, regvm_us, super_us, reduction))
      corpus
  in
  print_table
    ~title:
      (Printf.sprintf
         "Superoptimizer: demux CPU per builtin (%d packets, cache off)"
         n_packets)
    ~note:
      "note: 'paper' column = [`Regvm] (certified pipeline); 'ours' =\n\
       [`Regvm_super] (pipeline + proof-gated search). The register VM\n\
       charges per executed IR instruction, so rediscovered early exits\n\
       cut the rejected-traffic walk directly."
    (List.map
       (fun (name, regvm_us, super_us, reduction) ->
         { metric = name;
           paper = Printf.sprintf "%.0f uSec" regvm_us;
           ours = Printf.sprintf "%.0f uSec (%.1f%%)" super_us reduction })
       results);
  let wins =
    List.filter (fun (_, _, _, r) -> r >= win_threshold_pct) results
  in
  let regressions =
    List.filter (fun (_, regvm_us, super_us, _) -> super_us > regvm_us) results
  in
  record_metric "superopt_corpus_filters" (float_of_int (List.length results));
  record_metric "superopt_demux_wins" (float_of_int (List.length wins));
  record_metric "superopt_regressions" (float_of_int (List.length regressions));
  List.iter
    (fun (name, _, _, reduction) ->
      let slug =
        String.map
          (function 'a' .. 'z' | '0' .. '9' as c -> c | _ -> '_')
          (String.lowercase_ascii name)
      in
      record_metric (Printf.sprintf "superopt_reduction_pct_%s" slug) reduction)
    results;
  budget_curve ();
  (* The CI gates: the search must never lose, and must win where the win
     class lives — >= 5% demux reduction on >= 25% of the corpus. *)
  (match regressions with
  | [] -> ()
  | (name, regvm_us, super_us, _) :: _ ->
    failwith
      (Printf.sprintf "superopt regression: %s demux %.1f uSec > regvm %.1f"
         name super_us regvm_us));
  if 4 * List.length wins < List.length results then
    failwith
      (Printf.sprintf
         "superopt under-delivers: only %d of %d filters improved >= %.0f%%"
         (List.length wins) (List.length results) win_threshold_pct)

(* The cross-filter dispatch automaton, tested differentially against the
   sequential walk it replaces: mirrored devices receive identical mutation
   streams (install / close / set_priority / set_filter / set_tap /
   set_copy_all, and cache / compile / cost-limit policy toggles) and
   identical packets, and must agree on every verdict and on per-port
   accept/drop accounting, while the automaton the device keeps current in
   place must equal one built from scratch after every mutation; plus
   busier-first reorder coverage, residual-fallback coverage for unbounded
   read sets, direct unit tests of the build decisions and of incremental
   add/remove, and the seeded unsound-prefix-sharing mutant, which the fuzz
   oracle must catch and shrink. *)

open Pf_kernel
module Packet = Pf_pkt.Packet
module Predicates = Pf_filter.Predicates
module Dispatch = Pf_filter.Dispatch
module Validate = Pf_filter.Validate
module Program = Pf_filter.Program
module Fast = Pf_filter.Fast
module Rng = Pf_fuzz.Gen.Rng
module Oracle = Pf_fuzz.Oracle
module Runner = Pf_fuzz.Runner

let mk_dev () =
  let eng = Pf_sim.Engine.create () in
  let costs = Pf_sim.Costs.free in
  let dev =
    Pfdev.create eng (Pf_sim.Cpu.create costs) costs (Pf_sim.Stats.create ())
      ~variant:Pf_net.Frame.Exp3 ~address:(Pf_net.Addr.exp 1)
      ~send:(fun _ -> ())
  in
  (eng, dev)

let set_filter_exn port program =
  match Pfdev.set_filter port program with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Format.asprintf "%a" Pfdev.pp_install_error e)

let validate_exn program =
  match Validate.check program with
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpectedly invalid: %a" Validate.pp_error e

(* {1 Incremental = from scratch}

   An automaton kept current by add/remove must be indistinguishable from a
   fresh build of the entries it holds: the same per-filter decisions
   (positional ranks), the same group structure, the same residual walk,
   and on every probe packet the same winner and the same classification
   work. Only the rank numbers of [residuals] and the winner may differ —
   they are order keys, not positions. *)

let probe_packets =
  Packet.of_string ""
  :: List.init 4 (fun k -> Testutil.ip_udp_frame ~dst_port:(1000 + k))
  @ List.concat_map
      (fun socket ->
        List.map
          (fun ptype -> Testutil.pup_frame ~ptype ~dst_socket:(Int32.of_int (30 + socket)) ())
          [ 1; 2; 3 ])
      [ 0; 1; 2; 3 ]

let decision_lines ~name d =
  List.map
    (fun (rank, v, dec) -> Format.asprintf "%d %s: %a" rank (name v) Dispatch.pp_decision dec)
    (Dispatch.decisions d)

let check_same ~what ~name maintained fresh =
  Alcotest.(check (list string)) (what ^ ": decisions") (decision_lines ~name fresh)
    (decision_lines ~name maintained);
  Alcotest.(check bool) (what ^ ": info") true (Dispatch.info fresh = Dispatch.info maintained);
  let residuals d = List.map (fun (_, v) -> name v) (Dispatch.residuals d) in
  Alcotest.(check (list string)) (what ^ ": residuals") (residuals fresh)
    (residuals maintained);
  List.iter
    (fun packet ->
      let classify d =
        let winner, stats = Dispatch.classify d packet in
        (Option.map (fun (_, v) -> name v) winner, stats)
      in
      Alcotest.(check bool) (what ^ ": classify winner and stats") true
        (classify fresh = classify maintained))
    probe_packets

(* {1 Mirrored-device equivalence under randomized mutation}

   A [`Sequential] and a [`Dispatch] device receive the same mutation
   stream and the same packets. Any divergence in a demux verdict or in
   per-port accounting is an automaton bug — in classification itself, in
   the rank-merged residual walk, or in a missed or wrong in-place update
   after a mutation. After every mutation the automaton the [`Dispatch]
   device maintains must also equal a from-scratch build of its ports, and
   both devices' flow-cache key offsets must equal the union read set of
   the installed filters, recomputed. Policy toggles refile nothing: the
   automaton is built once, on first use, and never again. *)

let port_name p = string_of_int (Pfdev.port_id p)

let expected_key_offsets ports =
  let rec union acc = function
    | [] -> Some (Array.of_list (List.sort_uniq compare acc))
    | p :: rest -> (
      match Pfdev.port_analysis p with
      | None -> union acc rest
      | Some a -> (
        match a.Pf_filter.Analysis.read_set with
        | Pf_filter.Analysis.Unbounded -> None
        | Pf_filter.Analysis.Exact idxs -> union (idxs @ acc) rest))
  in
  union [] ports

(* Filter pool: exact guard chains (distinct sockets), a non-exact chain
   (pup_dst_port_10mb keeps code after its guards), a short chain shared
   across sockets (pup_type_is), an unbounded read set (residual), and a
   chainless accept-all (residual). *)
let pool =
  [|
    (fun s -> Predicates.pup_dst_socket (Int32.of_int (30 + s)));
    (fun s -> Predicates.pup_dst_port_10mb ~host:3 (Int32.of_int (30 + s)));
    (fun s -> Predicates.pup_type_is (1 + (s mod 3)));
    (fun s -> Predicates.udp_dst_port_any_ihl (1000 + s));
    (fun _ -> Predicates.accept_all);
  |]

let random_program rng =
  let f = pool.(Rng.int rng (Array.length pool)) in
  f (Rng.int rng 4)

let random_packet rng =
  if Rng.chance rng 20 then Testutil.ip_udp_frame ~dst_port:(1000 + Rng.int rng 4)
  else
    Testutil.pup_frame
      ~ptype:(1 + Rng.int rng 3)
      ~dst_socket:(Int32.of_int (30 + Rng.int rng 4))
      ()

let run_mirrored ~seed ~cache ~steps =
  let rng = Rng.make seed in
  let eng_s, dev_s = mk_dev () in
  let eng_a, dev_a = mk_dev () in
  Pfdev.set_cache_enabled dev_s cache;
  Pfdev.set_cache_enabled dev_a cache;
  Pfdev.set_strategy dev_a `Dispatch;
  (* Parallel port pairs, index-aligned across the two devices. *)
  let ports = ref [] in
  let open_pair () =
    let ps = Pfdev.open_port dev_s and pa = Pfdev.open_port dev_a in
    Pfdev.set_queue_limit ps 2;
    Pfdev.set_queue_limit pa 2;
    ports := !ports @ [ (ps, pa) ];
    (ps, pa)
  in
  let pick rng =
    match !ports with
    | [] -> None
    | l -> Some (List.nth l (Rng.int rng (List.length l)))
  in
  let both f =
    f dev_s;
    f dev_a
  in
  let mutate rng =
    match Rng.int rng 7 with
    | 0 ->
      let ps, pa = open_pair () in
      let p = random_program rng in
      set_filter_exn ps p;
      set_filter_exn pa p
    | 1 -> (
      match pick rng with
      | Some (ps, pa) when List.length !ports > 1 ->
        Pfdev.close_port ps;
        Pfdev.close_port pa;
        ports := List.filter (fun (q, _) -> q != ps) !ports
      | _ -> ())
    | 2 -> (
      match pick rng with
      | Some (ps, pa) ->
        let p = random_program rng in
        set_filter_exn ps p;
        set_filter_exn pa p
      | None -> ())
    | 3 -> (
      match pick rng with
      | Some (ps, pa) ->
        let pri = Rng.int rng 4 in
        Pfdev.set_priority ps pri;
        Pfdev.set_priority pa pri
      | None -> ())
    | 4 -> (
      match pick rng with
      | Some (ps, pa) ->
        let flag = Rng.bool rng in
        Pfdev.set_copy_all ps flag;
        Pfdev.set_copy_all pa flag
      | None -> ())
    | 5 -> (
      match pick rng with
      | Some (ps, pa) ->
        let flag = Rng.bool rng in
        Pfdev.set_tap ps flag;
        Pfdev.set_tap pa flag
      | None -> ())
    | _ -> (
      match Rng.int rng 4 with
      | 0 ->
        both (fun d ->
            Pfdev.set_cache_enabled d (not cache);
            Pfdev.set_cache_enabled d cache)
      | 1 ->
        let n = 1 + Rng.int rng 16 in
        both (fun d -> Pfdev.set_cache_capacity d n)
      | 2 ->
        let s = if Rng.bool rng then `Regvm else `Off in
        both (fun d -> Pfdev.set_compile_strategy d s)
      | _ ->
        let limit = if Rng.bool rng then Some 1_000_000 else None in
        both (fun d -> Pfdev.set_cost_limit d limit))
  in
  for step = 1 to steps do
    mutate rng;
    let what = Printf.sprintf "seed %d step %d" seed step in
    (match Pfdev.For_testing.dispatch dev_a ~cpu:0 with
    | Some maintained ->
      check_same ~what ~name:port_name maintained (Pfdev.For_testing.fresh_dispatch dev_a)
    | None ->
      Alcotest.(check int) (what ^ ": no automaton, never built") 0
        (Pfdev.dispatch_stats dev_a).Pfdev.rebuilds);
    Alcotest.(check (option (array int)))
      (what ^ ": sequential key offsets")
      (expected_key_offsets (List.map fst !ports))
      (Pfdev.For_testing.cache_key_offsets dev_s);
    Alcotest.(check (option (array int)))
      (what ^ ": dispatch key offsets")
      (expected_key_offsets (List.map snd !ports))
      (Pfdev.For_testing.cache_key_offsets dev_a);
    (* A short burst of shared packets after every mutation; the occasional
       kernel-claimed packet exercises the taps-only bypass. *)
    for _ = 1 to 4 do
      let packet = random_packet rng in
      let kernel_claimed = Rng.chance rng 8 in
      let rs = Pfdev.demux dev_s ~kernel_claimed packet in
      let ra = Pfdev.demux dev_a ~kernel_claimed packet in
      if rs <> ra then
        Alcotest.failf
          "step %d: sequential walk says %b, dispatch automaton says %b" step
          rs ra
    done
  done;
  Pf_sim.Engine.run eng_s;
  Pf_sim.Engine.run eng_a;
  List.iteri
    (fun i (ps, pa) ->
      Alcotest.(check int)
        (Printf.sprintf "port %d accepted" i)
        (Pfdev.port_accepted ps) (Pfdev.port_accepted pa);
      Alcotest.(check int)
        (Printf.sprintf "port %d dropped" i)
        (Pfdev.port_dropped ps) (Pfdev.port_dropped pa))
    !ports;
  let ds = Pfdev.dispatch_stats dev_a in
  Alcotest.(check bool) "automaton actually classified packets" true
    (ds.Pfdev.classifies > 0);
  Alcotest.(check int) "built once, on first use" 1 ds.Pfdev.rebuilds;
  Alcotest.(check bool) "mutations updated the automaton in place" true
    (ds.Pfdev.updates > 0)

let test_mirrored_mutations_cache_off () =
  List.iter
    (fun seed -> run_mirrored ~seed ~cache:false ~steps:40)
    [ 1; 2; 3; 4; 5 ]

let test_mirrored_mutations_cache_on () =
  List.iter
    (fun seed -> run_mirrored ~seed ~cache:true ~steps:40)
    [ 6; 7; 8; 9; 10 ]

(* {1 A busier-first reorder renumbers the one walk order}

   Under [`Sequential], a busier-first reorder moves the busiest port to
   the front of its priority band. The walk, the residual merge and the
   automaton share one rank per port, so the automaton built afterwards
   follows the reordered walk, and later mutations update it in place. *)

(* Port ids in walk order, read off a fresh build of the walk. *)
let walk_ids dev =
  List.map
    (fun (_, p, _) -> Pfdev.port_id p)
    (Dispatch.decisions (Pfdev.For_testing.fresh_dispatch dev))

(* Three equal-priority ports on sockets 35..37, then 256 walks to the last
   one: it becomes the busiest and the reorder moves it first. [prepare]
   runs just ahead of the walks. *)
let reordered_dev ?(prepare = ignore) () =
  let eng, dev = mk_dev () in
  Pfdev.set_cache_enabled dev false;
  let ports =
    List.map
      (fun socket ->
        let p = Pfdev.open_port dev in
        set_filter_exn p (Predicates.pup_dst_socket socket);
        Pfdev.set_queue_limit p 1;
        p)
      [ 35l; 36l; 37l ]
  in
  prepare dev;
  let before = walk_ids dev in
  for _ = 1 to 256 do
    ignore (Pfdev.demux dev (Testutil.pup_frame ~dst_socket:37l ()) : bool)
  done;
  Pf_sim.Engine.run eng;
  let ids = List.map Pfdev.port_id ports in
  Alcotest.(check (list int)) "walk in open order" ids before;
  Alcotest.(check (list int)) "busiest port moved first"
    [ List.nth ids 2; List.nth ids 0; List.nth ids 1 ]
    (walk_ids dev);
  (dev, ports)

let test_reordered_walk_updated_in_place () =
  let dev, ports = reordered_dev () in
  Pfdev.set_strategy dev `Dispatch;
  let demux_and_check what =
    ignore (Pfdev.demux dev (Testutil.pup_frame ~dst_socket:36l ()) : bool);
    match Pfdev.For_testing.dispatch dev ~cpu:0 with
    | Some d -> check_same ~what ~name:port_name d (Pfdev.For_testing.fresh_dispatch dev)
    | None -> Alcotest.fail "demux should have built the automaton"
  in
  let counts () =
    let ds = Pfdev.dispatch_stats dev in
    (ds.Pfdev.rebuilds, ds.Pfdev.updates)
  in
  demux_and_check "built on the reordered walk";
  Alcotest.(check (pair int int)) "one build" (1, 0) (counts ());
  let first, last = (List.hd ports, List.nth ports 2) in
  Pfdev.set_copy_all first true;
  demux_and_check "copy-all after the reorder";
  Alcotest.(check (pair int int)) "updated, not rebuilt" (1, 1) (counts ());
  Pfdev.close_port last;
  demux_and_check "the moved port closed";
  Alcotest.(check (pair int int)) "updated again" (1, 2) (counts ())

(* After a reorder, a reinstall or a same-band priority change keeps the
   port's place, and a port opened later lands last in its band. A
   priority outside 0..255 ranks as the nearest bound. Policy changes keep
   a built automaton; only a reorder that changed the walk drops it. *)
let test_reorder_keeps_places () =
  let built dev = Pfdev.For_testing.dispatch dev ~cpu:0 <> None in
  let policy dev =
    Pfdev.set_strategy dev `Dispatch;
    ignore (Pfdev.demux dev (Testutil.pup_frame ~dst_socket:99l ()) : bool);
    Pfdev.set_strategy dev `Sequential;
    Pfdev.set_cache_enabled dev true;
    Pfdev.set_cache_enabled dev false;
    Pfdev.set_cache_capacity dev 4;
    Pfdev.set_compile_strategy dev `Regvm;
    Pfdev.set_compile_strategy dev `Off;
    Pfdev.set_cost_limit dev (Some 1_000_000);
    Alcotest.(check bool) "strategy and policy keep the automaton" true (built dev)
  in
  let dev, ports = reordered_dev ~prepare:policy () in
  Alcotest.(check bool) "the reorder dropped it" false (built dev);
  let a, b, c = (List.nth ports 0, List.nth ports 1, List.nth ports 2) in
  let id = Pfdev.port_id in
  set_filter_exn a (Predicates.pup_dst_socket 35l);
  Pfdev.set_priority b 0;
  Alcotest.(check (list int)) "reinstall and same priority keep their place"
    [ id c; id a; id b ] (walk_ids dev);
  let d = Pfdev.open_port dev in
  set_filter_exn d (Predicates.pup_dst_socket 38l);
  Alcotest.(check (list int)) "a new port lands last" [ id c; id a; id b; id d ]
    (walk_ids dev);
  Pfdev.set_priority a 255;
  Pfdev.set_priority d 300;
  Alcotest.(check (list int)) "300 ranks as 255" [ id a; id d; id c; id b ] (walk_ids dev);
  Pfdev.set_priority c (-5);
  Alcotest.(check (list int)) "-5 ranks as 0" [ id a; id d; id c; id b ] (walk_ids dev)

(* {1 Residual fallback: unbounded read sets}

   A filter whose read set is [Unbounded] (IHL-indexed UDP matching) can
   never be indexed; the automaton must classify it residual and the
   [`Dispatch] device must still deliver through the per-port walk. *)

let test_unbounded_residual_fallback () =
  let udp = Predicates.udp_dst_port_any_ihl 53 in
  let d =
    Dispatch.build
      [ (validate_exn udp, "udp"); (validate_exn (Predicates.pup_dst_socket 35l), "pup") ]
  in
  (match List.assoc_opt 0 (List.map (fun (r, _, d) -> (r, d)) (Dispatch.decisions d)) with
  | Some (Dispatch.Residual `Unbounded) -> ()
  | Some other ->
    Alcotest.failf "expected Residual `Unbounded, got %a" Dispatch.pp_decision other
  | None -> Alcotest.fail "no decision recorded for the UDP filter");
  let eng, dev = mk_dev () in
  Pfdev.set_strategy dev `Dispatch;
  let port = Pfdev.open_port dev in
  set_filter_exn port udp;
  let hit = Pfdev.demux dev (Testutil.ip_udp_frame ~dst_port:53) in
  let miss = Pfdev.demux dev (Testutil.ip_udp_frame ~dst_port:54) in
  Pf_sim.Engine.run eng;
  Alcotest.(check bool) "matching UDP packet delivered" true hit;
  Alcotest.(check bool) "non-matching UDP packet refused" false miss;
  let ds = Pfdev.dispatch_stats dev in
  Alcotest.(check bool) "delivery went through the residual walk" true
    (ds.Pfdev.residual_runs > 0)

(* {1 Direct unit tests of build decisions and classification} *)

(* Classification + rank-merged residual walk, against a plain linear
   first-match reference over the same rank order
   ({!Testutil.dispatch_vs_linear}). The §7 socket-table cases — 20 sockets
   and a catch-all, the interpretation saved, random priorities — are in
   the expr+decision suite. *)
let test_classify_matches_linear_reference () =
  let mixed =
    [
      ("sock35-pri2", Predicates.pup_dst_socket ~priority:2 35l);
      ("sock36", Predicates.pup_dst_socket 36l);
      ("type2", Predicates.pup_type_is 2);
      ("udp1000", Predicates.udp_dst_port_any_ihl 1000);
      ("any", Predicates.accept_all);
    ]
  in
  let packets =
    List.concat_map
      (fun socket ->
        List.map
          (fun ptype -> Testutil.pup_frame ~ptype ~dst_socket:(Int32.of_int socket) ())
          [ 1; 2; 3 ])
      [ 34; 35; 36; 37 ]
    @ [ Testutil.ip_udp_frame ~dst_port:1000; Testutil.ip_udp_frame ~dst_port:999;
        Packet.of_string "" ]
  in
  List.iter
    (fun packet ->
      let expected, _, got, _ = Testutil.dispatch_vs_linear mixed packet in
      Alcotest.(check (option string))
        "automaton+residual walk equals the linear walk" expected got)
    packets

let test_identical_filters_shadowed () =
  let v () = validate_exn (Predicates.pup_dst_socket 35l) in
  let d = Dispatch.build [ (v (), "first"); (v (), "second") ] in
  (match Dispatch.decisions d with
  | [ (0, "first", Dispatch.Indexed _); (1, "second", Dispatch.Shadowed { by = 0 }) ]
    -> ()
  | ds ->
    Alcotest.failf "expected the duplicate filter shadowed by rank 0, got:@.%a"
      (Format.pp_print_list (fun ppf (r, n, d) ->
           Format.fprintf ppf "  rank %d (%s): %a@." r n Dispatch.pp_decision d))
      ds);
  (* The shadowed entry must never win — and the shadow must not lose the
     packet either. *)
  match Dispatch.classify d (Testutil.pup_frame ~dst_socket:35l ()) with
  | Some (0, "first"), _ -> ()
  | Some (r, n), _ -> Alcotest.failf "wrong winner: rank %d (%s)" r n
  | None, _ -> Alcotest.fail "the packet should have been classified"

let test_never_accepts_dropped () =
  let d =
    Dispatch.build
      [ (validate_exn Predicates.reject_all, "never");
        (validate_exn (Predicates.pup_dst_socket 35l), "sock") ]
  in
  (match List.map (fun (_, n, dec) -> (n, dec)) (Dispatch.decisions d) with
  | [ ("never", Dispatch.Never_accepts); ("sock", Dispatch.Indexed _) ] -> ()
  | _ -> Alcotest.fail "reject-all should be dropped as Never_accepts");
  Alcotest.(check int) "no residuals" 0 (List.length (Dispatch.residuals d));
  match Dispatch.classify d (Testutil.pup_frame ~dst_socket:35l ()) with
  | Some (_, "sock"), _ -> ()
  | _ -> Alcotest.fail "the live filter should still win"

let test_copy_all_goes_residual () =
  let v () = validate_exn (Predicates.pup_dst_socket 35l) in
  let d =
    Dispatch.build
      ~indexable:(fun name -> name <> "monitor")
      [ (v (), "monitor"); (v (), "consumer") ]
  in
  match List.map (fun (_, n, dec) -> (n, dec)) (Dispatch.decisions d) with
  | [ ("monitor", Dispatch.Residual `Excluded); ("consumer", Dispatch.Indexed _) ]
    -> ()
  | _ -> Alcotest.fail "the excluded port must go residual, not indexed"

(* {1 Incremental add/remove, directly}

   Each test drives one automaton through add/remove and, after every step,
   compares it with a build of the entries it then holds (taken in rank
   order, so build's positional ranks follow the same order). *)

let fast_of program = Fast.compile (validate_exn program)

(* [held] is (rank, name, program), the automaton's contents. *)
let check_against_build ~what d held =
  let held = List.sort (fun (a, _, _) (b, _, _) -> compare a b) held in
  let fresh =
    Dispatch.build (List.map (fun (_, n, p) -> (validate_exn p, n)) held)
  in
  check_same ~what ~name:Fun.id d fresh

let decisions_of = decision_lines ~name:Fun.id

let sock35 = Predicates.pup_dst_socket 35l

let test_remove_unshadows () =
  let d = Dispatch.create () in
  let held = [ (10, "first", sock35); (20, "second", sock35) ] in
  List.iter (fun (rank, n, p) -> Dispatch.add d ~rank (fast_of p) n) held;
  Alcotest.(check (list string)) "second shadowed by first"
    [ "0 first: indexed on words [1 7 8], exact"; "1 second: shadowed by the entry at rank 0" ]
    (decisions_of d);
  check_against_build ~what:"both held" d held;
  Dispatch.remove d ~rank:10;
  Alcotest.(check (list string)) "second indexed once first is gone"
    [ "0 second: indexed on words [1 7 8], exact" ] (decisions_of d);
  check_against_build ~what:"first removed" d [ (20, "second", sock35) ];
  match Dispatch.classify d (Testutil.pup_frame ~dst_socket:35l ()) with
  | Some (20, "second"), _ -> ()
  | _ -> Alcotest.fail "the unshadowed entry should win, under its own rank"

let test_never_accepts_add_remove () =
  let d = Dispatch.create () in
  let held = [ (1, "sock", sock35); (2, "never", Predicates.reject_all) ] in
  List.iter (fun (rank, n, p) -> Dispatch.add d ~rank (fast_of p) n) held;
  Alcotest.(check (list string)) "dropped, not residual"
    [ "0 sock: indexed on words [1 7 8], exact"; "1 never: dropped (can never accept)" ]
    (decisions_of d);
  Alcotest.(check int) "no residuals" 0 (List.length (Dispatch.residuals d));
  check_against_build ~what:"never-accepting held" d held;
  Dispatch.remove d ~rank:2;
  Alcotest.(check int) "size" 1 (Dispatch.size d);
  check_against_build ~what:"never-accepting removed" d [ (1, "sock", sock35) ]

let test_priority_move () =
  (* Both accept a type-2 packet to socket 35, from different groups. *)
  let d = Dispatch.create () in
  let type2 = Predicates.pup_type_is 2 in
  Dispatch.add d ~rank:10 (fast_of type2) "type2";
  Dispatch.add d ~rank:20 (fast_of sock35) "sock35";
  let packet = Testutil.pup_frame ~ptype:2 ~dst_socket:35l () in
  let winner () = Option.map snd (fst (Dispatch.classify d packet)) in
  Alcotest.(check (option string)) "lower rank wins" (Some "type2") (winner ());
  check_against_build ~what:"before the move" d
    [ (10, "type2", type2); (20, "sock35", sock35) ];
  (* Raise sock35 above type2: a priority change is a remove and an add
     under the new rank. *)
  Dispatch.remove d ~rank:20;
  Dispatch.add d ~rank:5 (fast_of sock35) "sock35";
  Alcotest.(check (option string)) "moved entry wins" (Some "sock35") (winner ());
  check_against_build ~what:"after the move" d
    [ (5, "sock35", sock35); (10, "type2", type2) ]

type tenant = { name : string; mutable copy_all : bool }

let test_copy_all_toggle () =
  let indexable v = not v.copy_all in
  let d = Dispatch.create ~indexable () in
  let mon = { name = "monitor"; copy_all = false }
  and con = { name = "consumer"; copy_all = false } in
  Dispatch.add d ~rank:1 (fast_of sock35) mon;
  Dispatch.add d ~rank:2 (fast_of sock35) con;
  let check what =
    let fresh =
      Dispatch.build ~indexable [ (validate_exn sock35, mon); (validate_exn sock35, con) ]
    in
    check_same ~what ~name:(fun v -> v.name) d fresh
  in
  check "consumer shadowed";
  (* The monitor turns copy-all: refiled, it goes residual, and the
     consumer it shadowed is indexed. *)
  mon.copy_all <- true;
  Dispatch.remove d ~rank:1;
  Dispatch.add d ~rank:1 (fast_of sock35) mon;
  Alcotest.(check (list string)) "monitor excluded, consumer indexed"
    [ "0 monitor: residual (excluded: copy-all or tap)";
      "1 consumer: indexed on words [1 7 8], exact" ]
    (decision_lines ~name:(fun v -> v.name) d);
  check "monitor copy-all";
  mon.copy_all <- false;
  Dispatch.add d ~rank:1 (fast_of sock35) mon;
  check "monitor back (add replaces the entry at its rank)"

let test_group_emptied_and_refilled () =
  let d = Dispatch.create () in
  let packet = Testutil.pup_frame ~dst_socket:35l () in
  Dispatch.add d ~rank:7 (fast_of sock35) "sock";
  Alcotest.(check int) "one group" 1 (List.length (Dispatch.info d).Dispatch.groups);
  Dispatch.remove d ~rank:7;
  Alcotest.(check int) "emptied group dropped" 0
    (List.length (Dispatch.info d).Dispatch.groups);
  let winner, stats = Dispatch.classify d packet in
  Alcotest.(check bool) "nothing wins" true (winner = None);
  Alcotest.(check int) "no probe for the dropped group" 0 stats.Dispatch.probes;
  check_against_build ~what:"emptied" d [];
  Dispatch.add d ~rank:9 (fast_of sock35) "sock";
  let winner, stats = Dispatch.classify d packet in
  Alcotest.(check (option string)) "refilled group wins" (Some "sock")
    (Option.map snd winner);
  Alcotest.(check int) "one probe" 1 stats.Dispatch.probes;
  check_against_build ~what:"refilled" d [ (9, "sock", sock35) ]

(* {1 The seeded unsound-prefix-sharing mutant}

   Flip the automaton into accepting every slot-matched candidate on its
   guard prefix alone — the unsound sharing the [exact] distinction
   prevents. The fuzz oracle's demux-dispatch engine must catch it (the
   automaton accepts packets the sequential walk rejects), and the shrinker
   must reduce the evidence to an eyeball-sized reproducer. *)

let test_unsound_sharing_mutant_caught_and_shrunk () =
  Dispatch.For_testing.unsound_prefix_sharing := true;
  let stats =
    Fun.protect
      ~finally:(fun () -> Dispatch.For_testing.unsound_prefix_sharing := false)
      (fun () -> Runner.run ~max_failures:1 ~seed:0xD15B ~iters:2_000 ())
  in
  match stats.Runner.failures with
  | [] -> Alcotest.fail "the oracle missed the unsound-prefix-sharing mutant"
  | f :: _ ->
    Alcotest.(check bool) "dispatch demux is the culprit" true
      (List.exists
         (fun (m : Oracle.mismatch) -> m.Oracle.engine = "demux-dispatch")
         f.Runner.mismatches);
    Alcotest.(check bool) "shrunk case still disagrees" true
      (List.exists
         (fun (m : Oracle.mismatch) -> m.Oracle.engine = "demux-dispatch")
         f.Runner.shrunk_mismatches);
    Alcotest.(check bool)
      (Format.asprintf "reproducer is <= 5 insns, got:@.%a" Program.pp
         f.Runner.shrunk_program)
      true
      (Program.insn_count f.Runner.shrunk_program <= 5);
    Alcotest.(check bool) "repro command present" true
      (Testutil.contains f.Runner.repro "pffuzz --seed")

let suite =
  ( "dispatch",
    [
      Alcotest.test_case "mirrored mutations, cache off" `Quick
        test_mirrored_mutations_cache_off;
      Alcotest.test_case "mirrored mutations, cache on" `Quick
        test_mirrored_mutations_cache_on;
      Alcotest.test_case "reordered walk built once, then updated in place" `Quick
        test_reordered_walk_updated_in_place;
      Alcotest.test_case "reorder keeps places; priorities clamp to 0..255" `Quick
        test_reorder_keeps_places;
      Alcotest.test_case "unbounded read set falls back to the residual walk"
        `Quick test_unbounded_residual_fallback;
      Alcotest.test_case "classify + residual merge equals the linear walk"
        `Quick test_classify_matches_linear_reference;
      Alcotest.test_case "identical filter is shadowed" `Quick
        test_identical_filters_shadowed;
      Alcotest.test_case "never-accepting filter is dropped" `Quick
        test_never_accepts_dropped;
      Alcotest.test_case "excluded (copy-all) filter goes residual" `Quick
        test_copy_all_goes_residual;
      Alcotest.test_case "remove un-shadows an identical filter" `Quick
        test_remove_unshadows;
      Alcotest.test_case "never-accepting filter added and removed" `Quick
        test_never_accepts_add_remove;
      Alcotest.test_case "priority move re-ranks one entry" `Quick
        test_priority_move;
      Alcotest.test_case "copy-all toggle refiles between slot and residual"
        `Quick test_copy_all_toggle;
      Alcotest.test_case "group emptied and refilled" `Quick
        test_group_emptied_and_refilled;
      Alcotest.test_case "unsound-prefix-sharing mutant caught and shrunk"
        `Quick test_unsound_sharing_mutant_caught_and_shrunk;
    ] )

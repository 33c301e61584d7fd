module Packet = Pf_pkt.Packet
module Engine = Pf_sim.Engine
module Cpu = Pf_sim.Cpu
module Smp = Pf_sim.Smp
module San = Pf_sim.San
module Costs = Pf_sim.Costs
module Stats = Pf_sim.Stats
module Process = Pf_sim.Process
module Condition = Pf_sim.Condition
module Frame = Pf_net.Frame
module Addr = Pf_net.Addr

type capture = {
  packet : Packet.t;
  timestamp : Pf_sim.Time.t option;
  dropped_before : int;
}

(* What demultiplexing one packet did, counted as it happens; [price]
   turns it into simulated CPU time. *)
type work = {
  mutable filters_run : int;
  mutable stack_insns : int;
  mutable regvm_applies : int;
  mutable regvm_insns : int;
  mutable dispatch_probes : int;
  mutable dispatch_hash_words : int;
  mutable cache_probes : int;
  mutable cache_hash_words : int;
  mutable san_accesses : int;
  mutable timestamps : int;
  mutable wakeups : int;
  mutable lock_acquires : int;
  mutable lock_wait_us : int;
}

let no_work () =
  { filters_run = 0; stack_insns = 0; regvm_applies = 0; regvm_insns = 0;
    dispatch_probes = 0; dispatch_hash_words = 0; cache_probes = 0;
    cache_hash_words = 0; san_accesses = 0; timestamps = 0; wakeups = 0;
    lock_acquires = 0; lock_wait_us = 0 }

let add_work a w =
  a.filters_run <- a.filters_run + w.filters_run;
  a.stack_insns <- a.stack_insns + w.stack_insns;
  a.regvm_applies <- a.regvm_applies + w.regvm_applies;
  a.regvm_insns <- a.regvm_insns + w.regvm_insns;
  a.dispatch_probes <- a.dispatch_probes + w.dispatch_probes;
  a.dispatch_hash_words <- a.dispatch_hash_words + w.dispatch_hash_words;
  a.cache_probes <- a.cache_probes + w.cache_probes;
  a.cache_hash_words <- a.cache_hash_words + w.cache_hash_words;
  a.san_accesses <- a.san_accesses + w.san_accesses;
  a.timestamps <- a.timestamps + w.timestamps;
  a.wakeups <- a.wakeups + w.wakeups;
  a.lock_acquires <- a.lock_acquires + w.lock_acquires;
  a.lock_wait_us <- a.lock_wait_us + w.lock_wait_us

(* Linear in every field: a sum of records costs the sum of their prices. *)
let price (c : Costs.t) w =
  ((w.filters_run - w.regvm_applies) * c.Costs.filter_apply)
  + (w.stack_insns * c.Costs.filter_insn)
  + (w.regvm_applies * c.Costs.regvm_apply)
  + (w.regvm_insns * c.Costs.regvm_insn)
  + (w.dispatch_probes * c.Costs.dispatch_probe)
  + (w.dispatch_hash_words * c.Costs.dispatch_hash_word)
  + (w.cache_probes * c.Costs.cache_probe)
  + (w.cache_hash_words * c.Costs.cache_hash_word)
  + (w.san_accesses * c.Costs.san_access)
  + (w.timestamps * c.Costs.timestamp)
  + (w.wakeups * c.Costs.wakeup)
  + (w.lock_acquires * c.Costs.lock_acquire)
  + w.lock_wait_us

(* The walk: open ports keyed by [rank_of]. *)
module Ranks = Map.Make (Int)

type port = {
  dev : t;
  id : int;
  mutable filter : Pf_filter.Fast.t option;
  mutable regvm : Pf_filter.Regvm.t option;
      (* When set, the walk runs this instead of [filter]; the stack
         compilation is kept alongside for the status surface. *)
  mutable engine_kind : [ `Stack | `Regvm | `Regvm_super ];
  mutable engine_applications : int;
  mutable engine_insns : int;
  mutable insns_source : int;
  mutable insns_compiled : int;
  mutable validated : Pf_filter.Validate.t option;
  mutable analysis : Pf_filter.Analysis.t option;
  mutable certification : Pf_filter.Equiv.certification option;
      (* translation-validation outcome of the install-time compilation;
         None until a filter is installed *)
  mutable priority : int; (* 0..255 *)
  mutable order : int;
      (* place among equal priorities: the id, until a busier-first reorder
         renumbers the walk *)
  mutable timeout : Pf_sim.Time.t option;
  mutable queue_limit : int;
  queue : capture Queue.t;
  cond : unit Condition.t;
  mutable watchers : (unit -> bool) list; (* pending selects *)
  mutable copy_all : bool;
  mutable tap : bool;
  mutable timestamps : bool;
  mutable signal : (unit -> unit) option;
  mutable is_open : bool;
  mutable dropped : int;
  mutable accepted : int;
}

and t = {
  engine : Engine.t;
  smp : Smp.t; (* CPU 0 is the boot CPU; demux runs on the steered CPU *)
  costs : Costs.t;
  stats : Stats.t;
  variant : Frame.variant;
  address : Addr.t;
  send : Packet.t -> unit;
  mutable ports : port Ranks.t; (* every open port, in walk order *)
  mutable next_id : int;
  mutable demuxed_since_reorder : int;
  mutable strategy : [ `Sequential | `Dispatch ];
  mutable compile_strategy : [ `Off | `Regvm | `Regvm_super ];
  equiv_memo : Pf_filter.Equiv.Memo.t;
      (* device-wide equivalence-verdict memo: each filter shape's compile
         is certified once, and [`Regvm_super] search candidates that
         recur prove once *)
  mutable cost_limit : int option; (* admission bound on a filter's cost_bound *)
  mutable cache_enabled : bool;
  mutable cache_capacity : int;
  mutable key_state : key_state; (* shared: derived from the filter set *)
  mutable key_fresh : bool; (* false once an invalidation asks for a refresh *)
  mutable readers : int array;
      (* per packet word, the installed filters on open ports reading it *)
  mutable unbounded_filters : int; (* ... and with an unbounded read set *)
  mutable key_moved : bool;
      (* a count above crossed 0 <-> 1 since [key_state] was computed *)
  delivery_lock : Smp.lock; (* shared port queues; only taken when ncpus > 1 *)
  cpus : percpu array;
  mutable san : san_handles option; (* concurrency sanitizer, when attached *)
  mutable last_work : work; (* the most recent demux's record *)
  (* user side, summed over the device's ports *)
  mutable syscalls : int;
  mutable writes : int;
  mutable reads_delivered : int;
  mutable copy_us : int; (* copy-out CPU time of the delivered reads *)
}

(* The sanitizer's view of this device: every shared object registered with
   its locking discipline. Absent (the default), instrumentation is dead
   code with zero cost — which is what keeps every legacy counter and the
   1-CPU parity gate byte-identical. *)
and san_handles = {
  checker : San.t;
  res_queue : San.resource; (* shared port queues, guarded by delivery_lock *)
  res_table : San.resource; (* the port/filter table, published by IPI *)
  res_cache : San.resource array; (* per-CPU private flow caches *)
  res_dispatch : San.resource array; (* per-CPU private dispatch automata *)
  res_statword : San.resource array; (* per-CPU demux counters *)
}

(* One CPU's private state: flow cache, dispatch automaton and demux
   counters. The demultiplexing flow cache is a bounded table from the packet bytes
   at the installed filters' union read set to the list of accepting ports.
   Soundness rests on {!Pf_filter.Analysis.t.read_set}: two packets that
   agree on every read-set word (including which of those words exist) get
   the same verdict from every installed filter, so the cached acceptor
   list is exactly what the ordered walk (or the dispatch automaton) would
   have produced — as long as the filter set, priorities, and walk order have
   not changed since the entry was stored, which is what the invalidation
   paths guarantee. Receive steering sends every packet of a flow to the
   same CPU, so the caches shard the flow space with no cross-CPU traffic,
   and every invalidation flushes all of them (costed as an IPI broadcast).
   The counters are the only copy of each per-packet device fact. *)
and percpu = {
  table : (string, port list) Hashtbl.t;
  fifo : string Queue.t; (* insertion order, for capacity eviction *)
  mutable generation : int; (* bumped by every invalidation *)
  mutable dispatch : port Pf_filter.Dispatch.t option; (* built on first use *)
  total : work; (* field-wise sum of every demux record on this CPU *)
  mutable packets : int; mutable accepts : int;
  mutable nomatch : int; (* neither accepted nor kernel-claimed *)
  (* flow cache; [flushes] counts invalidations of this CPU's cache *)
  mutable hits : int; mutable misses : int; mutable bypasses : int;
  mutable evictions : int; mutable flushes : int;
  (* dispatch automaton *)
  mutable classifies : int; mutable exact_accepts : int; mutable candidates : int;
  mutable residual_runs : int; mutable rebuilds : int; mutable updates : int;
  mutable lock_waits : int; (* contended delivery-lock acquisitions *)
  mutable reader_locks : int; (* readers' dequeue acquisitions, once charged *)
}

and key_state =
  | Unusable (* some installed filter's read set is unbounded *)
  | Offsets of int array (* sorted union read set of the installed filters *)

let fresh_percpu () =
  { table = Hashtbl.create 64; fifo = Queue.create (); generation = 0;
    dispatch = None; total = no_work (); packets = 0; accepts = 0;
    nomatch = 0; hits = 0; misses = 0; bypasses = 0; evictions = 0; flushes = 0;
    classifies = 0; exact_accepts = 0; candidates = 0; residual_runs = 0;
    rebuilds = 0; updates = 0; lock_waits = 0; reader_locks = 0 }

let sum_cpus t f = Array.fold_left (fun acc c -> acc + f c) 0 t.cpus

(* The device's share of the ["pf.*"] keys the per-CPU counters hold. A
   [count] key exists once it is positive; a [derive]d one once its
   [present] count is, possibly at value 0. *)
let derive_stats t =
  let sum f = sum_cpus t f in
  let positive v = if v > 0 then Some v else None in
  let count name f = Stats.derive t.stats name (fun () -> positive (sum f)) in
  let derive name ~present value =
    Stats.derive t.stats name (fun () -> if sum present > 0 then Some (sum value) else None)
  in
  count "pf.packets" (fun c -> c.packets);
  count "pf.accepted" (fun c -> c.accepts);
  count "pf.drop.nomatch" (fun c -> c.nomatch);
  count "pf.cache.hit" (fun c -> c.hits);
  count "pf.cache.miss" (fun c -> c.misses);
  count "pf.cache.bypass" (fun c -> c.bypasses);
  count "pf.cache.eviction" (fun c -> c.evictions);
  count "pf.dispatch.rebuild" (fun c -> c.rebuilds);
  count "pf.dispatch.update" (fun c -> c.updates);
  count "pf.dispatch.classify" (fun c -> c.classifies);
  count "pf.dispatch.exact_accept" (fun c -> c.exact_accepts);
  count "pf.dispatch.residual_run" (fun c -> c.residual_runs);
  count "pf.smp.lock_contended" (fun c -> c.lock_waits);
  count "pf.smp.lock_wait_us" (fun c -> c.total.lock_wait_us);
  count "pf.smp.lock_acquire" (fun c -> c.total.lock_acquires + c.reader_locks);
  let filters_run c = c.total.filters_run in
  derive "pf.filters_tested" ~present:filters_run filters_run;
  derive "pf.filter_insns" ~present:filters_run (fun c ->
      c.total.stack_insns + c.total.regvm_insns);
  derive "pf.regvm_insns" ~present:(fun c -> c.total.regvm_applies) (fun c ->
      c.total.regvm_insns);
  derive "pf.demux_cpu_us" ~present:(fun c -> c.packets) (fun c -> price t.costs c.total);
  let user name ~present value =
    Stats.derive t.stats name (fun () -> if present () > 0 then Some (value ()) else None)
  in
  let reads () = t.reads_delivered in
  user "pf.syscalls" ~present:(fun () -> t.syscalls) (fun () -> t.syscalls);
  user "pf.writes" ~present:(fun () -> t.writes) (fun () -> t.writes);
  user "pf.reads.delivered" ~present:reads reads;
  user "pf.copy_cpu_us" ~present:reads (fun () -> t.copy_us);
  if Array.length t.cpus > 1 then
    Array.iteri
      (fun k c ->
        Stats.derive t.stats
          (Printf.sprintf "pf.smp.cpu%d.packets" k)
          (fun () -> positive c.packets))
      t.cpus

let create_smp engine smp costs stats ~variant ~address ~send =
  let t = {
    engine;
    smp;
    costs;
    stats;
    variant;
    address;
    send;
    ports = Ranks.empty;
    next_id = 0;
    demuxed_since_reorder = 0;
    strategy = `Sequential;
    compile_strategy = `Off;
    equiv_memo = Pf_filter.Equiv.Memo.create ();
    cost_limit = None;
    cache_enabled = true;
    cache_capacity = 256;
    key_state = Offsets [||];
    key_fresh = false;
    readers = [||];
    unbounded_filters = 0;
    key_moved = true;
    delivery_lock = Smp.Lock.create ~name:"delivery_lock" smp;
    cpus = Array.init (Smp.ncpus smp) (fun _ -> fresh_percpu ());
    san = None;
    last_work = no_work ();
    syscalls = 0;
    writes = 0;
    reads_delivered = 0;
    copy_us = 0;
  }
  in
  derive_stats t;
  t

let create engine cpu costs stats ~variant ~address ~send =
  create_smp engine (Smp.of_cpus engine costs [| cpu |]) costs stats ~variant ~address ~send

let ncpus t = Smp.ncpus t.smp
let smp t = t.smp

(* The seeded kernel bugs, exported with the inspection hooks at the end
   of this file as [For_testing]. *)
module Mutants = struct
  (* When set, [install]/[set_filter] leave the flow cache and the
     automata alone — the "forgot to invalidate" kernel bug. The
     differential suite flips this to prove the cold/warm/disabled demux
     oracle catches stale entries; never set it outside tests. *)
  let skip_install_invalidation = ref false

  (* When set, invalidations flush (and update the automaton of) only the
     mutating CPU's flow cache and skip the IPI broadcast — the SMP
     variant of the same bug: a kernel that forgot the other CPUs exist.
     Remote caches keep answering from entries stored under the old
     filter set. The differential suite flips
     this to prove the oracle catches stale remote decisions. *)
  let skip_remote_invalidation = ref false

  (* When set, the demux delivery path inserts into the shared port queues
     without taking the delivery lock — the skip-lock-around-queue-insert
     bug. The lock is pure cost accounting to the differential oracle
     (verdicts never change), so only the concurrency sanitizer can catch
     this one: the delivery queue's candidate lockset goes empty as soon as
     two CPUs both deliver. *)
  let skip_delivery_lock = ref false
end

let san t = Option.map (fun h -> h.checker) t.san

(* Declare the device's shared objects, their disciplines, and every access
   site to a sanitizer, and start instrumenting. The declarations double as
   the static lint's input: `pftool sanlint` checks them against each
   other and the lock-order DAG without running any traffic. *)
let attach_san t san =
  if San.ncpus san <> Smp.ncpus t.smp then
    invalid_arg "Pfdev.attach_san: sanitizer and device disagree on ncpus";
  Smp.set_san t.smp san;
  let n = Smp.ncpus t.smp in
  San.declare_lock san (Smp.Lock.name t.delivery_lock);
  let res_queue =
    San.register san ~name:"pfdev.delivery_queue"
      ~discipline:(San.Guarded_by (Smp.Lock.name t.delivery_lock))
  in
  let res_table =
    San.register san ~name:"pfdev.port_table" ~discipline:San.Ipi_published
  in
  let res_cache =
    Array.init n (fun k ->
        San.register san
          ~name:(Printf.sprintf "pfdev.flow_cache.cpu%d" k)
          ~discipline:(San.Cpu_private k))
  in
  let res_dispatch =
    Array.init n (fun k ->
        San.register san
          ~name:(Printf.sprintf "pfdev.dispatch.cpu%d" k)
          ~discipline:(San.Cpu_private k))
  in
  let res_statword =
    Array.init n (fun k ->
        San.register san
          ~name:(Printf.sprintf "pfdev.smp_stats.cpu%d" k)
          ~discipline:(San.Cpu_private k))
  in
  let lock = Smp.Lock.name t.delivery_lock in
  San.declare_site san ~site:"Pfdev.demux:deliver" ~ctx:San.Any_cpu
    ~locks:[ lock ] ~rw:`Write res_queue;
  San.declare_site san ~site:"Pfdev.locked_dequeue" ~ctx:San.Boot
    ~locks:[ lock ] ~rw:`Write res_queue;
  San.declare_site san ~site:"Pfdev.demux:classify" ~ctx:San.Any_cpu ~locks:[]
    ~rw:`Read res_table;
  San.declare_site san ~site:"Pfdev.install" ~ctx:San.Boot ~locks:[]
    ~rw:`Write res_table;
  San.declare_site san ~site:"Pfdev.maybe_reorder" ~ctx:San.Any_cpu ~locks:[]
    ~rw:`Write res_table;
  Array.iteri
    (fun k r ->
      San.declare_site san ~site:"Pfdev.demux:cache" ~ctx:(San.On_cpu k)
        ~locks:[] ~rw:`Write r)
    res_cache;
  Array.iteri
    (fun k r ->
      San.declare_site san ~site:"Pfdev.invalidate_cache:flush"
        ~ctx:(San.On_cpu k) ~locks:[] ~rw:`Write r)
    res_cache;
  Array.iteri
    (fun k r ->
      San.declare_site san ~site:"Pfdev.demux:dispatch" ~ctx:(San.On_cpu k)
        ~locks:[] ~rw:`Write r)
    res_dispatch;
  Array.iteri
    (fun k r ->
      San.declare_site san ~site:"Pfdev.demux:counters" ~ctx:(San.On_cpu k)
        ~locks:[] ~rw:`Write r)
    res_statword;
  t.san <-
    Some { checker = san; res_queue; res_table; res_cache; res_dispatch; res_statword }

(* A real mutation of the port table, for the sanitizer's happens-before
   tracking. (Distinct from [invalidate_cache], which also covers
   mutations of cache {e policy} that touch no table state.) *)
let san_table_write ?(cpu = 0) t =
  match t.san with
  | Some h -> San.write h.checker ~cpu h.res_table
  | None -> ()

(* {2 Ranks}

   One order key per port — priority descending, then [order] — keys the
   walk, the residual merge and every automaton alike. *)

let rank_of p = ((255 - p.priority) lsl 31) lor p.order

(* Where an open port is filed; a closed one is in no walk or automaton. *)
let filed p = if p.is_open then Some (rank_of p) else None

(* Copy-all and tap ports are not indexable: their multi-delivery cannot be
   expressed by a first-match winner. *)
let indexable p = (not p.copy_all) && not p.tap

(* File [port] in automaton [d], if the walk applies its filter. *)
let dispatch_add d port =
  match port.filter with
  | Some fast when port.is_open -> Pf_filter.Dispatch.add d ~rank:(rank_of port) fast port
  | Some _ | None -> ()

(* The automaton update for a mutation of [port], filed under [before]
   until now: take the old entry out and file the port anew. *)
let refile ~before port c =
  match c.dispatch with
  | Some d ->
    Option.iter (fun rank -> Pf_filter.Dispatch.remove d ~rank) before;
    dispatch_add d port;
    c.updates <- c.updates + 1
  | None -> ()

(* Count [port]'s installed read set into ([delta] = 1) or out of (-1) the
   flow-cache key. *)
let count_read_set t port delta =
  let cross before = if (before = 0) <> (before + delta = 0) then t.key_moved <- true in
  match port.analysis with
  | None -> ()
  | Some a -> (
    match a.Pf_filter.Analysis.read_set with
    | Pf_filter.Analysis.Unbounded ->
      cross t.unbounded_filters;
      t.unbounded_filters <- t.unbounded_filters + delta
    | Pf_filter.Analysis.Exact idxs ->
      List.iter
        (fun i ->
          if i >= Array.length t.readers then begin
            let grown = Array.make (max (i + 1) (2 * Array.length t.readers)) 0 in
            Array.blit t.readers 0 grown 0 (Array.length t.readers);
            t.readers <- grown
          end;
          cross t.readers.(i);
          t.readers.(i) <- t.readers.(i) + delta)
        idxs)

(* [refile] is what the invalidation does to each flushed CPU's automaton:
   a port mutation brings it up to date in place. By default it is left
   alone, since no entry depends on strategy or policy. *)
let invalidate_cache ?(cpu = 0) ?(refile = ignore) t =
  (* An acceptor-changing mutation: tell the protocol checker a new
     configuration epoch begins now, before any CPU syncs to it. *)
  (match t.san with Some h -> San.publish h.checker ~cpu h.res_table | None -> ());
  let flush_one k =
    let c = t.cpus.(k) in
    refile c;
    c.generation <- c.generation + 1;
    if Hashtbl.length c.table > 0 then begin
      Hashtbl.reset c.table;
      Queue.clear c.fifo
    end;
    c.flushes <- c.flushes + 1;
    match t.san with
    | Some h ->
      (* The flush runs in CPU [k]'s logical context (its shootdown
         handler); observing it is what syncs [k] to the new epoch. *)
      San.write h.checker ~cpu:k h.res_cache.(k);
      San.write h.checker ~cpu:k h.res_dispatch.(k);
      San.sync h.checker ~cpu:k h.res_table
    | None -> ()
  in
  if !Mutants.skip_remote_invalidation then flush_one cpu
  else begin
    t.key_fresh <- false;
    for k = 0 to Smp.ncpus t.smp - 1 do
      flush_one k
    done;
    (* Remote caches are flushed by a costed interprocessor broadcast: the
       mutating CPU pays one ipi_send per peer, each peer one ipi_receive.
       (The flush itself is done synchronously above — the simulation's
       demux events are already serialized by the engine, so no packet can
       race the shootdown; only the cost is modeled.) *)
    if Smp.ncpus t.smp > 1 then begin
      Stats.incr ~by:(Smp.ncpus t.smp - 1) t.stats "pf.smp.ipi";
      Smp.ipi_broadcast t.smp ~src:cpu (fun _ -> ())
    end
  end;
  Stats.incr t.stats "pf.cache.invalidation"

(* The walk is kept in order at mutation time, one map update per
   mutation, not by re-sorting on the demux path. A closed port stays out
   of it. *)
let reprioritize t port priority =
  if port.is_open then t.ports <- Ranks.remove (rank_of port) t.ports;
  port.priority <- max 0 (min 255 priority);
  if port.is_open then t.ports <- Ranks.add (rank_of port) port t.ports

(* The occasional busier-first reordering of equal-priority filters
   (section 3.2) renumbers [order] along the new walk. Ids are never
   reused, so a port opened later still lands last in its priority band. *)
let maybe_reorder ?cpu t =
  t.demuxed_since_reorder <- t.demuxed_since_reorder + 1;
  if t.demuxed_since_reorder >= 256 then begin
    t.demuxed_since_reorder <- 0;
    let walk = List.map snd (Ranks.bindings t.ports) in
    let reordered =
      List.stable_sort
        (fun a b ->
          match compare b.priority a.priority with
          | 0 -> compare b.accepted a.accepted (* busier first *)
          | c -> c)
        walk
    in
    (* Reordering equal-priority overlapping filters can change which port
       wins a packet, so any cached decision taken under the old order is
       stale, and every automaton's ranks moved. This runs only under
       [`Sequential], where no automaton is consulted: drop them. *)
    if not (List.equal ( == ) walk reordered) then begin
      List.iteri (fun i p -> p.order <- i) reordered;
      t.ports <- Ranks.of_seq (Seq.map (fun p -> (rank_of p, p)) (List.to_seq reordered));
      san_table_write ?cpu t;
      invalidate_cache ?cpu ~refile:(fun c -> c.dispatch <- None) t
    end
  end

(* Charge CPU when called from process context; plain setup code (before the
   simulation starts) runs free. *)
let charge cost = if Process.running () && cost > 0 then Process.use_cpu cost

let open_port t =
  t.next_id <- t.next_id + 1;
  let port =
    {
      dev = t;
      id = t.next_id;
      filter = None;
      regvm = None;
      engine_kind = `Stack;
      engine_applications = 0;
      engine_insns = 0;
      insns_source = 0;
      insns_compiled = 0;
      validated = None;
      analysis = None;
      certification = None;
      priority = 0;
      order = t.next_id;
      timeout = None;
      queue_limit = 32;
      queue = Queue.create ();
      cond = Condition.create ();
      watchers = [];
      copy_all = false;
      tap = false;
      timestamps = false;
      signal = None;
      is_open = true;
      dropped = 0;
      accepted = 0;
    }
  in
  t.ports <- Ranks.add (rank_of port) port t.ports;
  san_table_write t;
  (* A port with no filter accepts nothing and is in no automaton, so no
     cached decision or automaton changes: nothing to flush. Its first
     [install] invalidates. *)
  port

let close_port port =
  let t = port.dev in
  let before = filed port in
  if port.is_open then begin
    count_read_set t port (-1);
    t.ports <- Ranks.remove (rank_of port) t.ports
  end;
  port.is_open <- false;
  san_table_write t;
  invalidate_cache t ~refile:(refile ~before port);
  (* Wake any blocked readers; they will notice the port is closed. *)
  ignore (Condition.broadcast port.cond () : int)

type install_error =
  | Invalid of Pf_filter.Validate.error
  | Cost_limit_exceeded of { bound : int; limit : int }

let pp_install_error ppf = function
  | Invalid e -> Pf_filter.Validate.pp_error ppf e
  | Cost_limit_exceeded { bound; limit } ->
    Format.fprintf ppf
      "filter cost bound %d exceeds the device admission limit %d" bound limit

let set_cost_limit t limit =
  t.cost_limit <- limit;
  invalidate_cache t

(* Installation = validation + abstract interpretation + compilation. The
   analysis is recorded on the port: its cost bound gates admission (a
   filter the device provably cannot afford per packet is refused up front,
   before any compilation is paid for or counted), and its
   verdict/relations feed the status surface. *)
let install port program =
  match Pf_filter.Validate.check program with
  | Error e -> Error (Invalid e)
  | Ok validated -> (
    let t = port.dev in
    let fast = Pf_filter.Fast.compile validated in
    let analysis = Pf_filter.Fast.analysis fast in
    match t.cost_limit with
    | Some limit when analysis.Pf_filter.Analysis.cost_bound > limit ->
      Error
        (Cost_limit_exceeded
           { bound = analysis.Pf_filter.Analysis.cost_bound; limit })
    | _ ->
      (* Compile according to the device strategy; the stack compilation is
         kept for the status surface. Every compile is certified, each
         filter shape proved once through the device memo; one that is
         not proved runs the plain lowering ([Regopt.certify]). *)
      let regvm, kind, compiled_insns, certification =
        match t.compile_strategy with
        | `Off ->
          (* identity compilation: trivially meaning-preserving *)
          (None, `Stack, Pf_filter.Program.insn_count program, Pf_filter.Equiv.Certified)
        | `Regvm ->
          let rvm, certification =
            Pf_filter.Regvm.compile_certified ~memo:t.equiv_memo validated
          in
          (Some rvm, `Regvm, Pf_filter.Ir.instr_count (Pf_filter.Regvm.ir rvm), certification)
        | `Regvm_super ->
          let rvm, certification, outcome =
            Pf_filter.Regvm.compile_super ~memo:t.equiv_memo validated
          in
          let st = outcome.Pf_filter.Superopt.stats in
          Stats.incr ~by:st.Pf_filter.Superopt.accepted t.stats "pf.superopt.accepted";
          Stats.incr ~by:st.Pf_filter.Superopt.rejected t.stats "pf.superopt.rejected";
          Stats.incr ~by:st.Pf_filter.Superopt.refuted t.stats "pf.superopt.refuted";
          Stats.incr ~by:st.Pf_filter.Superopt.proved t.stats "pf.superopt.proved";
          ( Some rvm,
            `Regvm_super,
            Pf_filter.Ir.instr_count (Pf_filter.Regvm.ir rvm),
            certification )
      in
      Stats.incr t.stats
        (match certification with
        | Pf_filter.Equiv.Certified -> "pf.certify.proved"
        | Pf_filter.Equiv.Refuted _ -> "pf.certify.refuted"
        | Pf_filter.Equiv.Uncertified _ -> "pf.certify.unknown");
      (* "at a cost comparable to that of receiving a packet" (§3.1) *)
      charge (t.costs.Costs.syscall + Costs.copy_cost t.costs ~bytes:(2 * Pf_filter.Program.code_words program) + t.costs.Costs.recv_interrupt);
      let before = filed port in
      if port.is_open then count_read_set t port (-1);
      port.filter <- Some fast;
      port.regvm <- regvm;
      port.engine_kind <- kind;
      port.engine_applications <- 0;
      port.engine_insns <- 0;
      port.insns_source <- Pf_filter.Program.insn_count program;
      port.insns_compiled <- compiled_insns;
      port.validated <- Some (Pf_filter.Fast.validated fast);
      port.analysis <- Some analysis;
      port.certification <- Some certification;
      if port.is_open then count_read_set t port 1;
      reprioritize t port (Pf_filter.Program.priority program);
      san_table_write t;
      if not !Mutants.skip_install_invalidation then
        invalidate_cache t ~refile:(refile ~before port)
      else begin
        (* The buggy kernel still mutated the acceptor set — and left every
           automaton as it was, stale entry and all. The protocol
           checker must learn the epoch advanced even though no CPU will
           ever sync to it. That is precisely what lets Pfsan flag this
           mutant from the trace alone. *)
        match t.san with
        | Some h -> San.publish h.checker ~cpu:0 h.res_table
        | None -> ()
      end;
      Ok analysis)

let set_filter port program =
  match install port program with Ok _ -> Ok () | Error _ as e -> e

let port_analysis port = port.analysis
let port_certification port = port.certification
let port_id port = port.id
let port_accepted port = port.accepted
let port_dropped port = port.dropped

let set_priority port priority =
  let before = filed port in
  reprioritize port.dev port priority;
  san_table_write port.dev;
  invalidate_cache port.dev ~refile:(refile ~before port)

let set_strategy t strategy =
  t.strategy <- strategy;
  invalidate_cache t

(* The compile strategy applies to future installs only: already-installed
   filters keep the engine they were compiled with (like a real driver,
   where recompiling under the caller's feet would need locking). Verdicts
   are engine-independent, so cached decisions stay sound; we still flush
   defensively since per-port cost accounting changes. *)
let set_compile_strategy t strategy =
  if t.compile_strategy <> strategy then begin
    t.compile_strategy <- strategy;
    invalidate_cache t
  end

type engine_stats = {
  engine : [ `Stack | `Regvm | `Regvm_super ];
  applications : int;
  insns_executed : int;
  insns_source : int;
  insns_compiled : int;
}

let port_engine_stats port =
  match port.filter with
  | None -> None
  | Some _ ->
    Some
      {
        engine = port.engine_kind;
        applications = port.engine_applications;
        insns_executed = port.engine_insns;
        insns_source = port.insns_source;
        insns_compiled = port.insns_compiled;
      }

let set_timeout port timeout = port.timeout <- timeout
let set_queue_limit port n = port.queue_limit <- max 1 n
(* Copy-all and tap ports are not indexable: refiling moves the port
   between a slot and the residual walk. *)
let set_copy_all port flag =
  port.copy_all <- flag;
  invalidate_cache port.dev ~refile:(refile ~before:(filed port) port)
let set_tap port flag =
  port.tap <- flag;
  invalidate_cache port.dev ~refile:(refile ~before:(filed port) port)
let set_timestamps port flag = port.timestamps <- flag
let set_signal port cb = port.signal <- cb

(* {1 Flow-cache control and observability} *)

let set_cache_enabled t flag =
  if t.cache_enabled <> flag then begin
    t.cache_enabled <- flag;
    invalidate_cache t
  end

let set_cache_capacity t n =
  t.cache_capacity <- max 1 n;
  invalidate_cache t

type cache_stats = {
  enabled : bool;
  entries : int;
  capacity : int;
  hits : int;
  misses : int;
  bypasses : int;
  invalidations : int;
  evictions : int;
}

let cache_stats t =
  let sum = sum_cpus t in
  {
    enabled = t.cache_enabled;
    entries = sum (fun c -> Hashtbl.length c.table);
    capacity = t.cache_capacity;
    hits = sum (fun c -> c.hits);
    misses = sum (fun c -> c.misses);
    bypasses = sum (fun c -> c.bypasses);
    invalidations = sum (fun c -> c.flushes);
    evictions = sum (fun c -> c.evictions);
  }

type dispatch_stats = {
  rebuilds : int;
  updates : int;
  classifies : int;
  exact_accepts : int;
  candidates_run : int;
  residual_runs : int;
}

let dispatch_stats t =
  let sum = sum_cpus t in
  {
    rebuilds = sum (fun c -> c.rebuilds);
    updates = sum (fun c -> c.updates);
    classifies = sum (fun c -> c.classifies);
    exact_accepts = sum (fun c -> c.exact_accepts);
    candidates_run = sum (fun c -> c.candidates);
    residual_runs = sum (fun c -> c.residual_runs);
  }

let pp_cache_stats ppf s =
  Format.fprintf ppf
    "flow cache: %s, %d/%d entries, %d hits / %d misses / %d bypasses, %d invalidations, %d evictions"
    (if s.enabled then "enabled" else "disabled")
    s.entries s.capacity s.hits s.misses s.bypasses s.invalidations s.evictions

(* {1 Kernel side} *)

let enqueue port capture =
  if Queue.length port.queue >= port.queue_limit then begin
    port.dropped <- port.dropped + 1;
    Stats.incr port.dev.stats "pf.drop.overflow"
  end
  else begin
    Queue.push capture port.queue;
    ignore (Condition.signal port.cond () : bool);
    (match port.signal with Some f -> f () | None -> ());
    match port.watchers with
    | [] -> ()
    | watchers ->
      port.watchers <- [];
      List.iter (fun deliver -> ignore (deliver () : bool)) watchers
  end

(* Every open port with an installed filter, in walk order. *)
let filtered_ports t =
  Ranks.fold
    (fun _ p acc -> match p.validated with Some v -> (v, p) :: acc | None -> acc)
    t.ports []
  |> List.rev

(* The whole-port-set dispatch automaton, built on first use and after a
   reorder dropped it. Copy-all and tap ports fall to the rank-ordered
   residual walk, which [classify_dispatch] merges with the automaton
   winner by rank. *)
let dispatch_of t cpu =
  let c = t.cpus.(cpu) in
  match c.dispatch with
  | Some d -> d
  | None ->
    let d = Pf_filter.Dispatch.create ~indexable () in
    Ranks.iter (fun _ p -> dispatch_add d p) t.ports;
    c.dispatch <- Some d;
    c.rebuilds <- c.rebuilds + 1;
    d

(* The union read set of every installed filter, as of the last
   invalidation. A port with no filter accepts nothing and reads nothing,
   so it does not constrain the key; any filter with an unbounded read set
   makes the cache unusable until the next invalidation changes the filter
   set. The counts are kept current by install and close; the sorted array
   is recomputed only when some offset gained its first reader or lost its
   last. *)
let key_state t =
  if not t.key_fresh then begin
    t.key_fresh <- true;
    if t.key_moved then begin
      t.key_moved <- false;
      t.key_state <-
        (if t.unbounded_filters > 0 then Unusable
         else begin
           let offsets = ref [] in
           for i = Array.length t.readers - 1 downto 0 do
             if t.readers.(i) > 0 then offsets := i :: !offsets
           done;
           Offsets (Array.of_list !offsets)
         end)
    end
  end;
  t.key_state

(* The cache key: for each union-read-set offset, a presence marker plus the
   big-endian word bytes — absence is part of the key because a too-short
   packet faults (rejecting) where a longer one reads a value. *)
let cache_key offsets frame =
  let buf = Buffer.create (3 * Array.length offsets) in
  Array.iter
    (fun i ->
      match Packet.word_opt frame i with
      | Some w ->
        Buffer.add_char buf '\001';
        Buffer.add_char buf (Char.chr (w lsr 8));
        Buffer.add_char buf (Char.chr (w land 0xff))
      | None -> Buffer.add_char buf '\000')
    offsets;
  Buffer.contents buf

(* Receive-side steering: hash the packet bytes at the union read set — the
   same bytes the flow cache keys on — to pick the receive CPU. Two packets
   of one flow agree on every read-set word, so they always steer to the
   same CPU, and each CPU's flow cache and dispatch automaton stay private
   to its shard of the flow space. When the key is unusable (some installed
   filter's read set is unbounded) or empty, everything lands on CPU 0.
   Steering charges no CPU time: it models the NIC's receive hashing
   hardware, not kernel work. *)
let steer t frame =
  let n = Smp.ncpus t.smp in
  if n = 1 then 0
  else begin
    match key_state t with
    | Unusable -> 0
    | Offsets [||] -> 0
    | Offsets offsets -> Hashtbl.hash (cache_key offsets frame) mod n
  end

type smp_cpu_stats = {
  cpu : int;
  packets : int;
  cache_hits : int;
  cache_misses : int;
  lock_waits : int;
  lock_wait_us : int;
  ipis_sent : int;
  ipis_received : int;
  busy_us : int;
  idle_us : int;
}

type smp_stats = {
  ncpus : int;
  per_cpu : smp_cpu_stats list;
  lock_acquisitions : int;
  lock_contended : int;
  lock_wait_total_us : int;
  ipis : int;
}

let smp_stats (t : t) =
  let now = Engine.now t.engine in
  let per_cpu =
    List.init (Smp.ncpus t.smp) (fun k ->
        let c = t.cpus.(k) in
        let cpu_k = Smp.cpu t.smp k in
        {
          cpu = k;
          packets = c.packets;
          cache_hits = c.hits;
          cache_misses = c.misses;
          lock_waits = c.lock_waits;
          lock_wait_us = c.total.lock_wait_us;
          ipis_sent = Smp.ipis_sent t.smp k;
          ipis_received = Smp.ipis_received t.smp k;
          busy_us = Cpu.busy_time cpu_k;
          idle_us = Cpu.idle_since cpu_k ~start:0 ~now;
        })
  in
  {
    ncpus = Smp.ncpus t.smp;
    per_cpu;
    lock_acquisitions = Smp.Lock.acquisitions t.delivery_lock;
    lock_contended = Smp.Lock.contended t.delivery_lock;
    lock_wait_total_us = Smp.Lock.wait_time t.delivery_lock;
    ipis = Smp.total_ipis t.smp;
  }

let pp_smp_cpu_stats ppf s =
  Format.fprintf ppf
    "cpu%d: %d packets, %d hits / %d misses, %d lock waits (%d us), %d/%d ipis sent/recv, %d us busy / %d us idle"
    s.cpu s.packets s.cache_hits s.cache_misses s.lock_waits s.lock_wait_us
    s.ipis_sent s.ipis_received s.busy_us s.idle_us

let pp_smp_stats ppf s =
  Format.fprintf ppf
    "smp: %d cpus, %d lock acquisitions (%d contended, %d us spinning), %d ipis"
    s.ncpus s.lock_acquisitions s.lock_contended s.lock_wait_total_us s.ipis;
  List.iter (fun c -> Format.fprintf ppf "@\n  %a" pp_smp_cpu_stats c) s.per_cpu

(* {1 Demultiplexing: classify, price, deliver}

   [demux] is the figure 4-1 loop in three steps. A classify function per
   strategy, behind one flow-cache probe, finds the accepting ports and
   counts the work it did in a [work] record; [price] turns the record
   into CPU time with the cost model; [deliver] takes the delivery lock,
   wakes the readers and queues the packet. Every simulated microsecond
   the demux path charges is a priced [work] field. *)

let last_work t = t.last_work

(* One filter application on the port's compiled engine. The outcome is
   packed as [Pf_filter.Fast.run_packed]'s: the stack walk allocates
   nothing per filter. *)
let run_filter w port frame =
  let packed =
    match port.regvm with
    | Some rvm ->
      let ok, insns = Pf_filter.Regvm.run_counted rvm frame in
      w.regvm_applies <- w.regvm_applies + 1;
      w.regvm_insns <- w.regvm_insns + insns;
      (insns lsl 1) lor Bool.to_int ok
    | None ->
      let packed = Pf_filter.Fast.run_packed (Option.get port.filter) frame in
      w.stack_insns <- w.stack_insns + (packed lsr 1);
      packed
  in
  w.filters_run <- w.filters_run + 1;
  port.engine_applications <- port.engine_applications + 1;
  port.engine_insns <- port.engine_insns + (packed lsr 1);
  packed land 1 = 1

exception Walk_done

(* Figure 4-1: apply the filters in walk order until one accepts, going on
   past acceptors that asked for copies. Kernel-claimed packets are only
   offered to tap ports. *)
let classify_sequential t w ~kernel_claimed frame =
  let acc = ref [] in
  (try
     Ranks.iter
       (fun _ port ->
         if Option.is_some port.filter && ((not kernel_claimed) || port.tap)
            && run_filter w port frame
         then begin
           acc := port :: !acc;
           if not port.copy_all then raise_notrace Walk_done
         end)
       t.ports
   with Walk_done -> ());
  List.rev !acc

(* Automaton classification, then the residual walk merged by rank: walk
   residual ports of lower rank than the automaton winner (a residual may
   outrank it, or be copy-all and accept additionally); once every
   remaining residual ranks past the winner, the winner — always
   non-copy-all — takes the packet and stops the walk, exactly where the
   sequential walk would have stopped. *)
let classify_dispatch t w ~cpu frame =
  let d = dispatch_of t cpu in
  let c = t.cpus.(cpu) in
  (match t.san with
  | Some h ->
    San.read h.checker ~cpu h.res_dispatch.(cpu);
    w.san_accesses <- w.san_accesses + 1
  | None -> ());
  c.classifies <- c.classifies + 1;
  let winner, dstats =
    Pf_filter.Dispatch.classify
      ~on_run:(fun port ~insns ->
        w.filters_run <- w.filters_run + 1;
        w.stack_insns <- w.stack_insns + insns;
        port.engine_applications <- port.engine_applications + 1;
        port.engine_insns <- port.engine_insns + insns)
      d frame
  in
  w.dispatch_probes <- w.dispatch_probes + dstats.Pf_filter.Dispatch.probes;
  w.dispatch_hash_words <- w.dispatch_hash_words + dstats.Pf_filter.Dispatch.hash_words;
  c.exact_accepts <- c.exact_accepts + dstats.Pf_filter.Dispatch.exact_accepts;
  c.candidates <- c.candidates + dstats.Pf_filter.Dispatch.candidates_run;
  let winner_rank = match winner with Some (r, _) -> r | None -> max_int in
  let with_winner acc =
    List.rev (match winner with Some (_, port) -> port :: acc | None -> acc)
  in
  let rec walk acc = function
    | [] -> with_winner acc
    | (rank, port) :: rest ->
      if rank > winner_rank then with_winner acc
      else if (not port.is_open) || port.filter = None then walk acc rest
      else begin
        c.residual_runs <- c.residual_runs + 1;
        if run_filter w port frame then
          if port.copy_all then walk (port :: acc) rest else List.rev (port :: acc)
        else walk acc rest
      end
  in
  walk [] (Pf_filter.Dispatch.residuals d)

(* Probe this CPU's flow cache, run the strategy's classifier on a miss,
   and store its answer. Kernel-claimed packets bypass the cache: they see
   a different port subset (taps only), so caching their decisions under
   the same key would be unsound. Kernel-claimed packets also bypass the
   automaton and take the sequential walk. *)
let classify t w ~cpu ~kernel_claimed frame =
  let c = t.cpus.(cpu) in
  let bypass () =
    c.bypasses <- c.bypasses + 1;
    `Off
  in
  let probe =
    if not t.cache_enabled then `Off
    else if kernel_claimed then bypass ()
    else begin
      match key_state t with
      | Unusable -> bypass ()
      | Offsets offsets -> (
        let key = cache_key offsets frame in
        w.cache_probes <- w.cache_probes + 1;
        w.cache_hash_words <- w.cache_hash_words + Array.length offsets;
        (match t.san with
        | Some h ->
          San.read h.checker ~cpu h.res_cache.(cpu);
          w.san_accesses <- w.san_accesses + 1
        | None -> ());
        match Hashtbl.find_opt c.table key with
        | Some acceptors ->
          (match t.san with
          | Some h -> San.note_hit h.checker ~cpu h.res_cache.(cpu) ~key
          | None -> ());
          `Hit acceptors
        | None -> `Miss (key, c.generation))
    end
  in
  match probe with
  | `Hit acceptors ->
    c.hits <- c.hits + 1;
    acceptors
  | (`Miss _ | `Off) as probe ->
    let acceptors =
      match t.strategy with
      | `Dispatch when not kernel_claimed -> classify_dispatch t w ~cpu frame
      | `Dispatch -> classify_sequential t w ~kernel_claimed frame
      | `Sequential ->
        (* Busier-first reordering only makes sense for the walk; the
           automaton is keyed on guards, not position. *)
        maybe_reorder ~cpu t;
        classify_sequential t w ~kernel_claimed frame
    in
    (match probe with
    | `Miss (key, generation) when generation = c.generation ->
      (* Store the decision unless something (e.g. a busier-first reorder
         during this very walk) invalidated the cache after the key was
         computed under the old read set. *)
      c.misses <- c.misses + 1;
      w.cache_probes <- w.cache_probes + 1 (* insert *);
      if Hashtbl.length c.table >= t.cache_capacity then (
        match Queue.take_opt c.fifo with
        | Some victim ->
          Hashtbl.remove c.table victim;
          c.evictions <- c.evictions + 1
        | None -> ());
      Hashtbl.replace c.table key acceptors;
      Queue.push key c.fifo;
      (match t.san with
      | Some h ->
        San.write h.checker ~cpu h.res_cache.(cpu);
        San.note_store h.checker ~cpu h.res_cache.(cpu) ~key;
        w.san_accesses <- w.san_accesses + 1
      | None -> ())
    | `Miss _ -> c.misses <- c.misses + 1
    | `Off -> ());
    acceptors

(* Delivery, once classification retires at [start]: on an SMP device it
   mutates the shared port queues, so it runs under the costed delivery
   spinlock; classification itself touches only this CPU's private cache
   and automaton and needs no lock. Splitting the interrupt into two CPU
   runs is cost-neutral on one CPU (no context switch is ever charged
   between them), which keeps the single-CPU path identical to the
   pre-SMP accounting. The delivery run is charged what this step adds to
   the record; the queue insert itself happens when that run retires. *)
let deliver t w ~cpu ~start ~arrival frame acceptors =
  let classify_us = price t.costs w in
  w.wakeups <- 1;
  let san_queue_write () =
    match t.san with
    | Some h ->
      San.write h.checker ~cpu h.res_queue;
      w.san_accesses <- w.san_accesses + 1
    | None -> ()
  in
  if Smp.ncpus t.smp = 1 then
    (* Single CPU: the legacy lock-free delivery. The instrumented write
       keeps the queue resource in the sanitizer's Exclusive state, so a
       1-CPU campaign can never report on it. *)
    san_queue_write ()
  else if !Mutants.skip_delivery_lock then
    (* The seeded bug: the shared-queue insert runs bare. Verdicts and
       queue contents are identical (the engine serializes demux events),
       so only the sanitizer's lockset can see this. *)
    san_queue_write ()
  else begin
    (* The lock covers only the queue insert (the [lock_acquire] charge);
       the scheduler wakeup runs after release — holding a spinlock across
       a wakeup would serialize the whole complex. *)
    let wait = Smp.Lock.acquire ~cpu t.delivery_lock ~start ~hold:0 in
    w.lock_acquires <- 1;
    w.lock_wait_us <- wait;
    san_queue_write ();
    Smp.Lock.release t.delivery_lock ~cpu
  end;
  let finish =
    Cpu.run (Smp.cpu t.smp cpu) ~owner:`Interrupt ~start
      ~cost:(price t.costs w - classify_us)
  in
  Engine.schedule t.engine ~at:finish (fun () ->
      List.iter
        (fun port ->
          let timestamp = if port.timestamps then Some arrival else None in
          enqueue port { packet = frame; timestamp; dropped_before = port.dropped })
        acceptors)

let demux t ?(cpu = 0) ?(kernel_claimed = false) frame =
  let n = Smp.ncpus t.smp in
  if cpu < 0 || cpu >= n then invalid_arg "Pfdev.demux: no such CPU";
  let c = t.cpus.(cpu) in
  c.packets <- c.packets + 1;
  let arrival = Engine.now t.engine in
  let w = no_work () in
  (* Sanitizer instrumentation. Each instrumented access is a real shadow
     bookkeeping step on the demuxing CPU, charged at [san_access] — that
     charge is what `bench smp --san` measures as overhead. Without an
     attached sanitizer every such branch is dead and free. *)
  (match t.san with
  | Some h ->
    San.write h.checker ~cpu h.res_statword.(cpu);
    San.read h.checker ~cpu h.res_table;
    w.san_accesses <- 2
  | None -> ());
  let acceptors = classify t w ~cpu ~kernel_claimed frame in
  List.iter
    (fun port ->
      port.accepted <- port.accepted + 1;
      if port.timestamps then w.timestamps <- w.timestamps + 1)
    acceptors;
  let accepted = acceptors <> [] in
  if accepted then c.accepts <- c.accepts + 1
  else if not kernel_claimed then c.nomatch <- c.nomatch + 1;
  (* Filter interpretation and bookkeeping happen at interrupt level;
     delivery completes when that CPU work retires. *)
  let classify_done =
    Cpu.run (Smp.cpu t.smp cpu) ~owner:`Interrupt ~start:arrival ~cost:(price t.costs w)
  in
  if accepted then deliver t w ~cpu ~start:classify_done ~arrival frame acceptors;
  add_work c.total w;
  if w.lock_wait_us > 0 then c.lock_waits <- c.lock_waits + 1;
  t.last_work <- w;
  accepted

(* {1 User side} *)

let syscall port =
  let t = port.dev in
  Process.use_cpu t.costs.Costs.syscall;
  t.syscalls <- t.syscalls + 1

(* Copy one dequeued packet out to the reader. *)
let copy_out port capture =
  let t = port.dev in
  let copy = Costs.copy_cost t.costs ~bytes:(Packet.length capture.packet) in
  Process.use_cpu copy;
  t.copy_us <- t.copy_us + copy;
  t.reads_delivered <- t.reads_delivered + 1;
  capture

(* User-side dequeue. On a multi-CPU device the port queues are shared with
   every demuxing CPU, so the reading process (on the boot CPU) takes the
   delivery lock around the dequeue; the single-CPU device keeps the legacy
   lock-free path and its exact cost accounting. *)
let locked_dequeue port =
  let t = port.dev in
  if Smp.ncpus t.smp > 1 then begin
    let wait =
      Smp.Lock.acquire ~cpu:0 t.delivery_lock ~start:(Engine.now t.engine)
        ~hold:0
    in
    Process.use_cpu (wait + t.costs.Costs.lock_acquire);
    t.cpus.(0).reader_locks <- t.cpus.(0).reader_locks + 1;
    let capture = Queue.take_opt port.queue in
    (match t.san with
    | Some h -> San.write h.checker ~cpu:0 h.res_queue
    | None -> ());
    Smp.Lock.release t.delivery_lock ~cpu:0;
    capture
  end
  else Queue.take_opt port.queue

let rec read_blocking port =
  match locked_dequeue port with
  | Some capture -> Some (copy_out port capture)
  | None ->
    if not port.is_open then None
    else begin
      match Condition.await ?timeout:port.timeout port.cond with
      | Some () -> read_blocking port
      | None -> None (* "the read call terminates and reports an error" *)
    end

let read port =
  syscall port;
  read_blocking port

(* Copy out exactly the packets that were pending when the system call ran —
   not a live tail of later arrivals, which could otherwise keep a busy
   reader inside one read forever. *)
let rec drain port acc remaining =
  if remaining = 0 then List.rev acc
  else begin
    match locked_dequeue port with
    | Some capture -> drain port (copy_out port capture :: acc) (remaining - 1)
    | None -> List.rev acc
  end

let rec read_batch_blocking port =
  let pending = Queue.length port.queue in
  if pending > 0 then drain port [] pending
  else if not port.is_open then []
  else begin
    match Condition.await ?timeout:port.timeout port.cond with
    | Some () -> read_batch_blocking port
    | None -> []
  end

let read_batch port =
  syscall port;
  read_batch_blocking port

let write_one port frame =
  let t = port.dev in
  let bytes = Packet.length frame in
  Process.use_cpu
    (Costs.copy_cost t.costs ~bytes
    + t.costs.Costs.send_path
    + (t.costs.Costs.send_per_kbyte * bytes / 1024));
  t.writes <- t.writes + 1;
  t.send frame

let write port frame =
  syscall port;
  write_one port frame

let write_batch port frames =
  syscall port;
  List.iter (write_one port) frames

let poll port = Queue.length port.queue

let select ?timeout ports =
  (match ports with
  | [] -> invalid_arg "Pfdev.select: no ports"
  | port :: _ -> Process.use_cpu port.dev.costs.Costs.syscall);
  let ready () = List.filter (fun p -> not (Queue.is_empty p.queue)) ports in
  match ready () with
  | _ :: _ as r -> r
  | [] -> (
    let waker = ref (fun () -> false) in
    let wait =
      Process.suspend ?timeout (fun deliver ->
          waker := deliver;
          List.iter (fun p -> p.watchers <- deliver :: p.watchers) ports)
    in
    (* An enqueue clears its own port's watchers; take this waker off every
       other port, or a timed-out or elsewhere-woken select leaves it
       behind for good. *)
    List.iter (fun p -> p.watchers <- List.filter (fun d -> d != !waker) p.watchers) ports;
    match wait with Some () -> ready () | None -> [])

(* {1 Status} *)

type status = {
  variant : Frame.variant;
  header_length : int;
  address_length : int;
  mtu : int;
  address : Addr.t;
  broadcast : Addr.t;
}

let status (t : t) =
  {
    variant = t.variant;
    header_length = Frame.header_length t.variant;
    address_length = (match t.variant with Frame.Exp3 -> 1 | Frame.Dix10 -> 6);
    mtu = Frame.max_payload t.variant;
    address = t.address;
    broadcast =
      (match t.variant with
      | Frame.Exp3 -> Addr.broadcast_exp
      | Frame.Dix10 -> Addr.broadcast_eth);
  }

(* Installed-filter relations, the pseudodevice's analysis status surface:
   which filters can never both accept (safe to reorder within a priority),
   and which ports are dead weight because a higher-priority filter already
   accepts everything they would (and, not being copy-all, consumes it). *)

let filter_relations t =
  let rec pairs = function
    | [] -> []
    | (v, p) :: rest ->
      List.map (fun (w, q) -> (p.id, q.id, Pf_filter.Analysis.relate v w)) rest
      @ pairs rest
  in
  pairs (filtered_ports t)

let shadowed_ports t =
  let active = filtered_ports t in
  List.filter_map
    (fun (v, p) ->
      let shadow =
        List.find_opt
          (fun (w, q) ->
            q.priority > p.priority
            && (not q.copy_all)
            &&
            match Pf_filter.Analysis.relate w v with
            | Pf_filter.Analysis.Subsumes | Pf_filter.Analysis.Equivalent -> true
            | _ -> false)
          active
      in
      Option.map (fun (_, q) -> (p, q)) shadow)
    active

module For_testing = struct
  include Mutants

  let dispatch t ~cpu = t.cpus.(cpu).dispatch
  let fresh_dispatch t = Pf_filter.Dispatch.build ~indexable (filtered_ports t)

  let watchers port = List.length port.watchers

  let cache_key_offsets t =
    match key_state t with Unusable -> None | Offsets offsets -> Some offsets
end

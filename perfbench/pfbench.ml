(* End-to-end benchmark of the packet filter simulation.

   Three seeded workloads, two clocks: simulated microseconds from the
   calibrated cost model, and the host wall clock of the OCaml itself.
   An untraced run gives the end-to-end metrics; a traced run
   ([--trace 1]) gives the per-layer split. The benchmark calls only
   public library functions and reads only public counters: every span is
   recorded here, around those calls.

     pfbench --workload paper-vmtp|tenants-zipf|port-churn
             --seed N --seconds S --trace 0|1 [--misdeliver-test]
     pfbench --calibrate

   The last line of standard output is one JSON object
   {correct, attempted, failed, metrics}. A misdelivered packet aborts
   the run with exit code 3; a nondeterministic simulation with exit
   code 4; a [--misdeliver-test] whose wrong stamp went unnoticed with
   exit code 5. *)

module Engine = Pf_sim.Engine
module Cpu = Pf_sim.Cpu
module Smp = Pf_sim.Smp
module Costs = Pf_sim.Costs
module Stats = Pf_sim.Stats
module Rng = Pf_sim.Rng
module Process = Pf_sim.Process
module Condition = Pf_sim.Condition
module Host = Pf_kernel.Host
module Pfdev = Pf_kernel.Pfdev
module Link = Pf_net.Link
module Nic = Pf_net.Nic
module Addr = Pf_net.Addr
module Frame = Pf_net.Frame
module Packet = Pf_pkt.Packet
module Builder = Pf_pkt.Builder
module Gen = Pf_monitor.Traffic.Gen
module Vmtp = Pf_proto.Vmtp
module Program = Pf_filter.Program
module Validate = Pf_filter.Validate
module Analysis = Pf_filter.Analysis
module Regvm = Pf_filter.Regvm
module Fast = Pf_filter.Fast
module Dispatch = Pf_filter.Dispatch

exception Misdelivery of string

let misdeliver fmt = Printf.ksprintf (fun s -> raise (Misdelivery s)) fmt

(* Set-up-only mode: a workload raises [Setup_done] with its set-up time
   instead of running traffic. *)
exception Setup_done of float

let setup_only = ref false

(* Monotonic host clock, seconds with nanosecond resolution. *)
let wall () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* {1 Small statistics} *)

let median = function
  | [] -> nan
  | l ->
    let a = Array.of_list (List.sort compare l) in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of a sorted array. *)
let percentile sorted q =
  let n = Array.length sorted in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let fratio a b = if b = 0. then 0. else a /. b

(* Run [f] (which does [items] units of work) until 50 ms have passed;
   return wall seconds per unit. *)
let time_per ~items f =
  let t0 = wall () in
  let iters = ref 0 in
  while !iters = 0 || wall () -. t0 < 0.05 do
    f ();
    incr iters
  done;
  (wall () -. t0) /. float_of_int (!iters * items)

(* {1 Host speed reference}

   On a shared host the speed of allocation-heavy code drifts over
   minutes and seconds, for every such program alike. A fixed loop of the
   same kind (allocation, a priority heap, byte copies, hashing), which
   calls no library code, is timed next to every wall-clock sample. A
   sample is scaled by the reference's nominal time over its time around
   the sample, so the wall metrics read as µs on a host that runs the
   reference at its nominal speed. *)

module Reference = struct
  (* Leftist heap: rank, key, value, left, right. *)
  type heap = E | N of int * int * Bytes.t * heap * heap

  let rank = function E -> 0 | N (r, _, _, _, _) -> r

  let node k v a b =
    if rank a >= rank b then N (rank b + 1, k, v, a, b) else N (rank a + 1, k, v, b, a)

  let rec merge a b =
    match (a, b) with
    | E, h | h, E -> h
    | N (_, ka, va, la, ra), N (_, kb, _, _, _) ->
      if ka <= kb then node ka va la (merge ra b) else merge b a

  let template = Bytes.make 64 'r'

  let work () =
    let tbl = Hashtbl.create 64 in
    let h = ref E and x = ref 12345 in
    for _ = 1 to 250 do
      x := ((!x * 1103515245) + 12345) land 0x3fffffff;
      h := merge !h (N (1, !x, Bytes.copy template, E, E))
    done;
    let rec drain acc = function
      | E -> acc
      | N (_, k, v, l, r) ->
        Hashtbl.replace tbl (k land 255) v;
        drain (acc + Bytes.length v) (merge l r)
    in
    drain 0 !h + Hashtbl.length tbl

  (* µs of one [work] on the host the benchmark was tuned on (2-vCPU
     Intel Xeon at 2.1 GHz). *)
  let nominal_us = 45.

  (* Every [work] timed, µs. *)
  let seen = ref []

  (* Median µs of five [work]s, now. One [work] allocates about a seventh
     of the minor heap, so most run without a collection, and the median
     does not depend on the size of the program's heap. *)
  let now () =
    median
      (List.init 5 (fun _ ->
           let t = wall () in
           ignore (Sys.opaque_identity (work ()) : int);
           let us = (wall () -. t) *. 1e6 in
           seen := us :: !seen;
           us))
end

(* Wall time per op over consecutive chunks of [size] ops, raw and
   scaled by the reference timed between chunks. The first chunk pays the
   warm-up and is dropped. *)
type chunker = {
  size : int;
  mutable last : float;
  mutable ref_us : float; (* the reference, timed before this chunk *)
  mutable per_op : (float * float) list; (* raw, scaled *)
}

let chunker size = { size; last = 0.; ref_us = nan; per_op = [] }

(* Call with the running op count after each op. *)
let tick c n =
  if n mod c.size = 0 then begin
    let t = wall () in
    let r = Reference.now () in
    if n > c.size then begin
      let raw = (t -. c.last) *. 1e6 /. float_of_int c.size in
      c.per_op <- (raw, raw *. Reference.nominal_us *. 2. /. (c.ref_us +. r)) :: c.per_op
    end;
    c.ref_us <- r;
    c.last <- wall ()
  end

(* {1 Tracing}

   Spans wrap synchronous calls only (a call that may block a simulated
   process would interleave with other events). Self time is a span's
   duration minus the part its direct children cover. *)

module Trace = struct
  type span = { name : string; op : int; parent : int; t0 : float; mutable t1 : float }

  let enabled = ref false
  let dummy = { name = ""; op = -1; parent = -1; t0 = 0.; t1 = 0. }
  let buf = ref (Array.make 4096 dummy)
  let len = ref 0
  let stack = ref []
  let origin = ref 0.

  let reset () =
    buf := Array.make 4096 dummy;
    len := 0;
    stack := [];
    origin := wall ()

  let enter ?(op = -1) name =
    if Array.length !buf = !len then begin
      let bigger = Array.make (2 * !len) dummy in
      Array.blit !buf 0 bigger 0 !len;
      buf := bigger
    end;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let i = !len in
    !buf.(i) <- { name; op; parent; t0 = wall (); t1 = nan };
    incr len;
    stack := i :: !stack;
    i

  let leave i =
    !buf.(i).t1 <- wall ();
    match !stack with _ :: rest -> stack := rest | [] -> ()

  let span ?op name f =
    if not !enabled then f ()
    else begin
      let i = enter ?op name in
      match f () with
      | v ->
        leave i;
        v
      | exception e ->
        leave i;
        raise e
    end

  (* (name, count, self seconds), by decreasing self time. *)
  let self_times () =
    let n = !len and b = !buf in
    let covered = Array.make n 0. in
    for i = 0 to n - 1 do
      let s = b.(i) in
      if s.parent >= 0 then covered.(s.parent) <- covered.(s.parent) +. (s.t1 -. s.t0)
    done;
    let tbl = Hashtbl.create 16 in
    for i = 0 to n - 1 do
      let s = b.(i) in
      let c, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (c + 1, t +. (s.t1 -. s.t0 -. covered.(i)))
    done;
    Hashtbl.fold (fun k (c, t) acc -> (k, c, t) :: acc) tbl []
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)

  let write path =
    let oc = open_out path in
    for i = 0 to !len - 1 do
      let s = !buf.(i) in
      Printf.fprintf oc
        "{\"id\":%d,\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,\"op\":%d}\n"
        i s.name
        ((s.t0 -. !origin) *. 1e6)
        ((s.t1 -. !origin) *. 1e6)
        s.parent s.op
    done;
    close_out oc
end

(* {1 Operations and output checks}

   Every generated frame carries its sequence number in four padding
   bytes beyond every installed filter's read set, so flow-cache keys and
   steering are unchanged. A reader checks that each packet belongs to
   its port's flow and that a port's packets arrive in sequence order. *)

module Ops = struct
  type t = {
    mutable n : int;
    mutable due : int array;
    mutable done_at : int array; (* -1 until a read returns it *)
    mutable fail_at : int array; (* -1, or when a call gave up *)
    mutable flow : int array;
    mutable counted : bool array; (* false: background or scan packet *)
    mutable bytes_read : int; (* payload bytes of ops returned to users *)
    mutable last_done : int;
  }

  let create () =
    {
      n = 0;
      due = Array.make 1024 0;
      done_at = Array.make 1024 (-1);
      fail_at = Array.make 1024 (-1);
      flow = Array.make 1024 0;
      counted = Array.make 1024 false;
      bytes_read = 0;
      last_done = 0;
    }

  let grow a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  let add t ~due ~flow ~counted =
    if t.n = Array.length t.due then begin
      t.due <- grow t.due 0;
      t.done_at <- grow t.done_at (-1);
      t.fail_at <- grow t.fail_at (-1);
      t.flow <- grow t.flow 0;
      t.counted <- grow t.counted false
    end;
    let id = t.n in
    t.due.(id) <- due;
    t.flow.(id) <- flow;
    t.counted.(id) <- counted;
    t.n <- id + 1;
    id

  let complete t id ~now ~bytes =
    t.done_at.(id) <- now;
    t.last_done <- max t.last_done now;
    if t.counted.(id) then t.bytes_read <- t.bytes_read + bytes

  (* The ops of [a], then those of [b], renumbered. *)
  let concat a b =
    let t = create () in
    List.iter
      (fun s ->
        for i = 0 to s.n - 1 do
          let id = add t ~due:s.due.(i) ~flow:s.flow.(i) ~counted:s.counted.(i) in
          t.done_at.(id) <- s.done_at.(i);
          t.fail_at.(id) <- s.fail_at.(i)
        done)
      [ a; b ];
    t.bytes_read <- a.bytes_read + b.bytes_read;
    t.last_done <- max a.last_done b.last_done;
    t

  let attempted t =
    let k = ref 0 in
    for i = 0 to t.n - 1 do
      if t.counted.(i) then incr k
    done;
    !k

  let failed t =
    let k = ref 0 in
    for i = 0 to t.n - 1 do
      if t.counted.(i) && t.done_at.(i) < 0 then incr k
    done;
    !k

  (* Latency of every counted op, sorted; a failed op counts at its give-up
     time, or at the drain deadline. *)
  let latencies t ~deadline =
    let l = ref [] in
    for i = t.n - 1 downto 0 do
      if t.counted.(i) then begin
        let fin =
          if t.done_at.(i) >= 0 then t.done_at.(i)
          else if t.fail_at.(i) >= 0 then t.fail_at.(i)
          else deadline
        in
        l := (fin - t.due.(i)) :: !l
      end
    done;
    let a = Array.of_list !l in
    Array.sort compare a;
    a
end

(* [--misdeliver-test] stamps the first frame bound for a reader with its
   predecessor's number, to show that the output checks catch a wrong
   delivery. A run that ends without catching it exits with code 5. *)
let misdeliver_test = ref false
let corrupted = ref false

(* [to_reader]: the frame goes to an open port with a reader. *)
let stamp frame ~off ~to_reader seq =
  let b = Packet.to_bytes frame in
  let seq =
    if !misdeliver_test && to_reader && not !corrupted then begin
      corrupted := true;
      seq - 1
    end
    else seq
  in
  Bytes.set_int32_be b off (Int32.of_int seq);
  Packet.of_bytes b

let seq_of frame ~off =
  (Packet.byte frame off lsl 24)
  lor (Packet.byte frame (off + 1) lsl 16)
  lor (Packet.byte frame (off + 2) lsl 8)
  lor Packet.byte frame (off + 3)

let header_bytes = Frame.header_length Frame.Dix10

(* Check one packet a reader of [flow]'s port got; [last] is the port's
   last sequence number. *)
let deliver ops ~engine ~off ~flow ~last (cap : Pfdev.capture) =
  let p = cap.Pfdev.packet in
  if Packet.length p < off + 4 then misdeliver "flow %d: short frame" flow;
  let seq = seq_of p ~off in
  if seq >= ops.Ops.n then misdeliver "flow %d: unknown sequence number %d" flow seq;
  if ops.Ops.flow.(seq) <> flow then
    misdeliver "packet %d of flow %d was read on the port of flow %d" seq
      ops.Ops.flow.(seq) flow;
  if seq <= !last then
    misdeliver "flow %d: packet %d read after packet %d (not FIFO)" flow seq !last;
  if ops.Ops.done_at.(seq) >= 0 then misdeliver "packet %d read twice" seq;
  last := seq;
  Ops.complete ops seq ~now:(Engine.now engine) ~bytes:(Packet.length p - header_bytes)

(* The highest byte any of [programs] can read: the stamp must lie beyond. *)
let max_read_byte programs =
  List.fold_left
    (fun acc p ->
      match (Analysis.analyze (Validate.check_exn p)).Analysis.read_set with
      | Analysis.Exact words -> List.fold_left (fun a w -> max a ((2 * w) + 1)) acc words
      | Analysis.Unbounded -> failwith "a workload filter has an unbounded read set")
    (-1) programs

let set_filter_exn port program =
  match Pfdev.set_filter port program with
  | Ok () -> ()
  | Error e -> failwith (Format.asprintf "set_filter: %a" Pfdev.pp_install_error e)

(* {1 Measuring a simulated world from outside} *)

type hostsnap = {
  stats : (string * int) list;
  busy : int array;
  ctx : int array;
  smp : Pfdev.smp_stats;
  cache : Pfdev.cache_stats;
  disp : Pfdev.dispatch_stats;
}

let cpus h = Array.init (Host.ncpus h) (fun k -> Smp.cpu (Host.smp h) k)

(* [busy] is the CPU time retired by [horizon]: work a CPU has committed
   beyond it (its backlog is contiguous) does not count. *)
let snap ~horizon h =
  let pf = Host.pf h in
  {
    stats = Stats.pairs (Host.stats h);
    busy =
      Array.map (fun c -> Cpu.busy_time c - max 0 (Cpu.busy_until c - horizon)) (cpus h);
    ctx = Array.map Cpu.context_switches (cpus h);
    smp = Pfdev.smp_stats pf;
    cache = Pfdev.cache_stats pf;
    disp = Pfdev.dispatch_stats pf;
  }

let stat s key = Option.value ~default:0 (List.assoc_opt key s.stats)

(* Counter deltas over a phase, summed over the world's hosts. *)
type phase = { before : hostsnap list; after : hostsnap list }

let sum f p = List.fold_left2 (fun acc b a -> acc + f a - f b) 0 p.before p.after
let dstat p key = sum (fun s -> stat s key) p
let busy_per_cpu p =
  List.concat (List.map2 (fun b a -> Array.to_list (Array.map2 (fun x y -> y - x) b.busy a.busy)) p.before p.after)

(* Everything a rep produces. [sim] is deterministic for a seed; the rest
   is wall clock. *)
type rep = {
  setup_s : float;
  chunks : (float * float) list; (* wall µs per op, raw and scaled, one per chunk *)
  traffic_s : float;
  events : int;
  sim : (string * float) list;
  attempted : int;
  failed : int;
  lateness : int; (* worst generator lateness, simulated µs *)
  layers : layer_ctx;
}

(* What the traced run's direct layer timings need from a workload. *)
and layer_ctx = {
  programs : Program.t array; (* the installed set, in install order *)
  frames : Packet.t array; (* frames the workload sent, in order *)
  frame_prog : int array; (* index of each frame's own program, or -1 *)
  regvm : bool; (* the receiver compiles with `Regvm *)
  fresh : unit -> Host.t * Pfdev.port array; (* same config, no readers *)
  replacements : Program.t array; (* programs the control replay installs *)
}

let sample_cap = 2048

(* Simulated metrics shared by every workload, over [phase]. A failed op
   counts at [deadline]; [reads]/[read_pkts] are read calls and the
   packets they returned; [extra_ledger] is CPU time the workload can
   attribute itself (protocol code, control plane). *)
let common_sim ~costs ~engine ~link ~phase ~ops ~deadline ~t_start ~t_end ~reads
    ~read_pkts ~qdepth ~extra_ledger ~rx_hosts =
  let attempted = Ops.attempted ops and failed = Ops.failed ops in
  let delivered = attempted - failed in
  let lat = Ops.latencies ops ~deadline in
  let busy = busy_per_cpu phase in
  let busy_sum = List.fold_left ( + ) 0 busy in
  let busy_max = List.fold_left max 0 busy in
  let secs = float_of_int (t_end - t_start) /. 1e6 in
  let c = costs in
  let ledger_of name v = (name, float_of_int v) in
  let ctx = sum (fun s -> Array.fold_left ( + ) 0 s.ctx) phase in
  let lock_wait = sum (fun s -> s.smp.Pfdev.lock_wait_total_us) phase in
  let demux_lock_wait = dstat phase "pf.smp.lock_wait_us" in
  let lock_acq = dstat phase "pf.smp.lock_acquire" in
  let multi = List.exists (fun h -> Host.ncpus h > 1) rx_hosts in
  let demux_acq = if multi then dstat phase "pf.accepted" else 0 in
  let ipis = sum (fun s -> s.smp.Pfdev.ipis) phase in
  let ledger =
    [
      ledger_of "driver" (dstat phase "host.interrupt_cpu_us");
      ledger_of "demux" (dstat phase "pf.demux_cpu_us");
      ledger_of "copy" (dstat phase "pf.copy_cpu_us");
      ledger_of "syscall" (dstat phase "pf.syscalls" * c.Costs.syscall);
      ledger_of "ctxsw" (ctx * c.Costs.context_switch);
      ledger_of "lock"
        (lock_wait - demux_lock_wait + ((lock_acq - demux_acq) * c.Costs.lock_acquire));
      ledger_of "ipi" (ipis * (c.Costs.ipi_send + c.Costs.ipi_receive));
    ]
    @ List.map
        (fun k -> (k, Option.value ~default:0. (List.assoc_opt k extra_ledger)))
        [ "proto"; "send"; "control" ]
  in
  let attributed = List.fold_left (fun a (_, v) -> a +. v) 0. ledger in
  let pkts = dstat phase "pf.packets" in
  let per_cpu_pkts =
    List.concat
      (List.map2
         (fun b a ->
           List.map2
             (fun (x : Pfdev.smp_cpu_stats) (y : Pfdev.smp_cpu_stats) ->
               y.Pfdev.packets - x.Pfdev.packets)
             b.smp.Pfdev.per_cpu a.smp.Pfdev.per_cpu)
         phase.before phase.after)
  in
  let hits = sum (fun s -> s.cache.Pfdev.hits) phase
  and misses = sum (fun s -> s.cache.Pfdev.misses) phase in
  let classifies = sum (fun s -> s.disp.Pfdev.classifies) phase in
  let ops_f = float_of_int (max 1 attempted) in
  [
    ("sim_lat_p50_us", float_of_int (percentile lat 0.5));
    ("sim_lat_p99_us", float_of_int (percentile lat 0.99));
    ("sim_lat_p999_us", float_of_int (percentile lat 0.999));
    ("sim_lat_max_us", float_of_int lat.(Array.length lat - 1));
    ("sim_lat_samples", float_of_int (Array.length lat));
    ("sim_goodput_kbs", float_of_int ops.Ops.bytes_read /. 1024. /. secs);
    ("sim_capacity_ops", float_of_int attempted *. 1e6 /. float_of_int (max 1 busy_max));
    ("sim_cpu_us_per_op", fratio (float_of_int busy_sum) (float_of_int delivered));
    ("fail_ratio", ratio failed attempted);
    ("filter.tested_per_pkt", ratio (dstat phase "pf.filters_tested") pkts);
    ("filter.insns_per_pkt", ratio (dstat phase "pf.filter_insns") pkts);
    ("cache.hit_ratio", ratio hits (hits + misses));
    ("cache.invalidations", float_of_int (sum (fun s -> s.cache.Pfdev.invalidations) phase));
    ("cache.evictions", float_of_int (sum (fun s -> s.cache.Pfdev.evictions) phase));
    ("dispatch.rebuilds", float_of_int (sum (fun s -> s.disp.Pfdev.rebuilds) phase));
    ("dispatch.exact_ratio", ratio (sum (fun s -> s.disp.Pfdev.exact_accepts) phase) classifies);
    ("smp.lock_wait_us", float_of_int lock_wait);
    ("smp.lock_contended_ratio",
      ratio (sum (fun s -> s.smp.Pfdev.lock_contended) phase)
        (sum (fun s -> s.smp.Pfdev.lock_acquisitions) phase));
    ("smp.lock_wait_per_busy", ratio lock_wait busy_sum);
    ("smp.ipis", float_of_int ipis);
    ("steer.busiest_cpu_share", ratio (List.fold_left max 0 per_cpu_pkts) pkts);
    ("pfdev.overflow_drops", float_of_int (dstat phase "pf.drop.overflow"));
    ("pfdev.pkts_per_read", ratio read_pkts reads);
    ("pfdev.queue_depth_max", float_of_int qdepth);
    ("pfdev.copy_us_per_op", float_of_int (dstat phase "pf.copy_cpu_us") /. ops_f);
    ("cpu.ctx_switches_per_op", float_of_int ctx /. ops_f);
    ("pfdev.syscalls_per_op", float_of_int (dstat phase "pf.syscalls") /. ops_f);
    ("host.driver_us_per_pkt", ratio (dstat phase "host.interrupt_cpu_us") (dstat phase "host.rx"));
    ("pfdev.demux_us_per_pkt", ratio (dstat phase "pf.demux_cpu_us") pkts);
    ("link.utilization", Link.utilization link ~now:(Engine.now engine));
    ("sim.unattributed_share", 1. -. fratio attributed (float_of_int busy_sum));
  ]
  @ List.map (fun (k, v) -> ("sim." ^ k ^ "_us_per_op", v /. ops_f)) ledger

(* Run the engine in small steps until some host has classified a packet:
   the end of set-up. *)
let run_until_first_packet engine hosts =
  let classified () =
    List.exists (fun h -> Stats.get (Host.stats h) "pf.packets" > 0) hosts
  in
  let steps = ref 0 in
  while (not (classified ())) && !steps < 1_000_000 do
    Engine.run ~until:(Engine.now engine + 100) engine;
    incr steps
  done;
  if not (classified ()) then failwith "set-up: no packet was ever classified"

(* Drain the set-up events and return a start time after every CPU's
   outstanding work. *)
let quiesce engine hosts =
  Engine.run engine;
  let busy = List.concat_map (fun h -> Array.to_list (Array.map Cpu.busy_until (cpus h))) hosts in
  List.fold_left max (Engine.now engine) busy + 1_000

(* {1 Open-loop workloads: tenants-zipf and port-churn} *)

type open_params = {
  ncpus : int;
  flows : int;
  skew : Gen.skew;
  ports : int; (* flows 0 .. ports-1 get a port at set-up *)
  churn_every : int option; (* control-plane churn every k packets *)
  scan_share : float; (* packets to flows that have no open port *)
  rate_pps : float;
  packets : int;
}

let frame_bytes = 64
let seq_off = 56 (* bytes 56..59 of a 64-byte frame *)
let drain_us = 1_000_000
let chunk_ops = 500

(* The 1-CPU capacity of the tenants-zipf configuration, ops/s: the
   [sim_capacity_ops] of that configuration at one CPU under a light
   50 pps probe ([--calibrate] re-derives it). tenants-zipf offers exactly
   this rate to its 4-CPU receiver. *)
let tenants_capacity_1cpu = 407.785523

(* The same for port-churn's configuration without churn; port-churn
   offers half of it, so control-plane work has room on its one CPU. *)
let churn_capacity_1cpu = 387.257036

let tenants =
  {
    ncpus = 4;
    flows = 1000;
    skew = Gen.Zipf 1.2;
    ports = 1000;
    churn_every = None;
    scan_share = 0.;
    rate_pps = tenants_capacity_1cpu;
    packets = 20_000;
  }

let churn =
  {
    ncpus = 1;
    flows = 5000;
    skew = Gen.Uniform;
    ports = 500;
    churn_every = Some 32;
    scan_share = 0.1;
    rate_pps = churn_capacity_1cpu /. 2.;
    packets = 80_000;
  }

(* Ports the generator keeps clear of at either end of the churn window:
   no new packet goes to a port about to close, and no scan packet to a
   flow about to open. *)
let churn_margin = 8

let open_world p ~gen ~readers ~on_read =
  let engine = Engine.create () in
  let link = Link.create engine Frame.Dix10 ~rate_mbit:10. () in
  let rx = Host.create ~ncpus:p.ncpus link ~name:"rx" ~addr:(Addr.eth_host 2) in
  let src = Nic.create link ~addr:(Addr.eth_host 1) in
  let pf = Host.pf rx in
  Trace.span "pfdev.configure" (fun () ->
      Pfdev.set_strategy pf `Dispatch;
      Pfdev.set_cache_enabled pf true;
      Pfdev.set_compile_strategy pf `Regvm);
  let ports = Hashtbl.create p.ports in
  let open_flow ~in_process i =
    let port = Trace.span "pfdev.open_port" (fun () -> Pfdev.open_port pf) in
    let prog = Gen.filter (Gen.flow gen i) in
    (* Inside a process set_filter blocks on the simulated CPU, so it
       cannot be a wall-clock span. *)
    if in_process then set_filter_exn port prog
    else Trace.span "pfdev.set_filter" (fun () -> set_filter_exn port prog);
    Hashtbl.replace ports i port;
    if readers then
      ignore
        (Host.spawn rx ~name:"reader" (fun () ->
             let last = ref (-1) in
             let rec loop () =
               match Pfdev.read_batch port with
               | [] -> ()
               | caps ->
                 on_read ~flow:i ~last caps;
                 loop ()
             in
             loop ())
          : Process.t)
  in
  for i = 0 to p.ports - 1 do
    open_flow ~in_process:false i
  done;
  (engine, link, rx, src, ports, open_flow)

let run_open p ~seed =
  let gen = Gen.make ~frame_bytes ~seed ~flows:p.flows ~skew:p.skew () in
  let programs = Array.init p.flows (fun i -> Gen.filter (Gen.flow gen i)) in
  if max_read_byte (Array.to_list programs) >= seq_off then
    failwith "the sequence stamp overlaps a filter's read set";
  let ops = Ops.create () in
  let reads = ref 0 and read_pkts = ref 0 in
  let engine_ref = ref None in
  let on_read ~flow ~last caps =
    Trace.span "check" (fun () ->
        let engine = Option.get !engine_ref in
        incr reads;
        List.iter
          (fun cap ->
            incr read_pkts;
            deliver ops ~engine ~off:seq_off ~flow ~last cap)
          caps)
  in
  let t_setup = wall () in
  let engine, link, rx, src, ports, open_flow =
    Trace.span "world.build" (fun () -> open_world p ~gen ~readers:true ~on_read)
  in
  engine_ref := Some engine;
  let t0 = Trace.span "engine.run" (fun () -> quiesce engine [ rx ]) in
  let before = [ snap ~horizon:t0 rx ] in
  let events0 = Engine.events_processed engine in
  let rng = Rng.create ((seed * 7919) + 17) in
  let dues = Array.make p.packets t0 in
  for i = 1 to p.packets - 1 do
    let gap = Rng.exponential rng ~mean:(1e6 /. p.rate_pps) in
    dues.(i) <- dues.(i - 1) + max 1 (int_of_float (Float.round gap))
  done;
  let deadline = dues.(p.packets - 1) + drain_us in
  (* The churn window [lo, hi) of open flows, and the control process. *)
  let lo = ref 0 and hi = ref p.ports in
  let pending = ref 0 in
  let wake = Condition.create () in
  let installs = ref 0 and install_cost = ref 0 in
  let costs = Host.costs rx in
  (match p.churn_every with
  | None -> ()
  | Some _ ->
    ignore
      (Host.spawn rx ~name:"control" (fun () ->
           while true do
             if !pending = 0 then ignore (Condition.await wake : unit option)
             else begin
               decr pending;
               let old = !lo in
               incr lo;
               Trace.span "pfdev.close_port" (fun () -> Pfdev.close_port (Hashtbl.find ports old));
               Hashtbl.remove ports old;
               let fresh = !hi in
               if fresh + churn_margin >= p.flows then failwith "port-churn ran out of flows";
               open_flow ~in_process:true fresh;
               incr installs;
               install_cost :=
                 !install_cost + costs.Costs.syscall
                 + Costs.copy_cost costs ~bytes:(2 * Program.code_words programs.(fresh))
                 + costs.Costs.recv_interrupt;
               hi := fresh + 1
             end
           done)
        : Process.t));
  let sent = ref 0 and lateness = ref 0 and qdepth = ref 0 in
  let collapsed = ref None in
  let cpu0 = Smp.cpu (Host.smp rx) 0 in
  let chunks = chunker chunk_ops in
  let frames = Array.make sample_cap (Packet.of_string "") in
  let frame_prog = Array.make sample_cap (-1) in
  let pick () =
    if p.ports = p.flows then ((Gen.draw gen).Gen.index, true)
    else if Rng.bool rng p.scan_share then begin
      (* Scan: a closed flow, or one the window has not reached. *)
      let closed = !lo and ahead = p.flows - (!hi + churn_margin) in
      let k = Rng.int rng (closed + ahead) in
      ((if k < closed then k else !hi + churn_margin + (k - closed)), false)
    end
    else begin
      let first = !lo + churn_margin in
      (first + Rng.int rng (!hi - first), true)
    end
  in
  let rec arrive i () =
    let due = dues.(i) in
    lateness := max !lateness (Engine.now engine - due);
    (* Readers run on CPU 0. Once its committed work reaches past the
       drain deadline no read can start in time: every op not yet read
       has failed, and the run stops here. Letting it go on would only
       feed the runaway until simulated time overflows; the cost is that
       a read already past its last CPU charge counts as failed. *)
    if Cpu.busy_until cpu0 > deadline then begin
      collapsed := Some due;
      for j = i to p.packets - 1 do
        let flow, counted = pick () in
        ignore (Ops.add ops ~due:dues.(j) ~flow ~counted : int)
      done;
      raise Exit
    end
    else send i
  and send i =
    let due = dues.(i) in
    let flow, counted = pick () in
    let id = Ops.add ops ~due ~flow ~counted in
    if counted then
      qdepth := max !qdepth (Pfdev.poll (Hashtbl.find ports flow));
    let frame = stamp (Gen.frame (Gen.flow gen flow)) ~off:seq_off ~to_reader:counted id in
    if id < sample_cap then begin
      frames.(id) <- frame;
      frame_prog.(id) <- (if flow < p.ports then flow else -1)
    end;
    Trace.span ~op:id "nic.send_frame" (fun () -> Nic.send_frame src frame);
    incr sent;
    (match p.churn_every with
    | Some k when !sent mod k = 0 ->
      incr pending;
      ignore (Condition.signal wake () : bool)
    | Some _ | None -> ());
    tick chunks !sent;
    if !sent < p.packets then Engine.schedule engine ~at:dues.(i + 1) (arrive (i + 1))
  in
  Engine.schedule engine ~at:t0 (arrive 0);
  Trace.span "engine.run" (fun () -> run_until_first_packet engine [ rx ]);
  let setup_s = wall () -. t_setup in
  if !setup_only then raise (Setup_done setup_s);
  let t_traffic = wall () in
  Trace.span "engine.run" (fun () ->
      (* Arrivals stop at [packets]; run to the drain deadline. *)
      let rec go () =
        if !sent < p.packets then begin
          Engine.run ~until:(Engine.now engine + 1_000_000) engine;
          go ()
        end
      in
      match go () with
      | () -> Engine.run ~until:deadline engine
      | exception Exit -> ());
  let traffic_s = wall () -. t_traffic in
  let phase = { before; after = [ snap ~horizon:deadline rx ] } in
  let t_end = max dues.(p.packets - 1) ops.Ops.last_done in
  let sim =
    common_sim ~costs ~engine ~link ~phase ~ops ~deadline ~t_start:t0 ~t_end
      ~reads:!reads ~read_pkts:!read_pkts ~qdepth:!qdepth
      ~extra_ledger:[ ("control", float_of_int !install_cost) ]
      ~rx_hosts:[ rx ]
    @ [
        ("scan_pkts", float_of_int (ops.Ops.n - Ops.attempted ops));
        ("collapse_at_s",
          match !collapsed with Some t -> float_of_int (t - t0) /. 1e6 | None -> -1.);
        ("installs", float_of_int !installs);
      ]
  in
  let installed = Array.init p.ports (fun i -> programs.(i)) in
  let n_frames = min sample_cap ops.Ops.n in
  {
    setup_s;
    chunks = List.rev chunks.per_op;
    traffic_s;
    events = Engine.events_processed engine - events0;
    sim;
    attempted = Ops.attempted ops;
    failed = Ops.failed ops;
    lateness = !lateness;
    layers =
      {
        programs = installed;
        frames = Array.sub frames 0 n_frames;
        frame_prog = Array.sub frame_prog 0 n_frames;
        regvm = true;
        fresh =
          (fun () ->
            let _, _, rx, _, ports, _ =
              open_world p ~gen ~readers:false ~on_read:(fun ~flow:_ ~last:_ _ -> ())
            in
            (rx, Array.init p.ports (fun i -> Hashtbl.find ports i)));
        replacements =
          Array.init 256 (fun k ->
              if p.ports = p.flows then programs.(k mod p.ports)
              else programs.((p.ports + k) mod p.flows));
      };
  }

(* {1 paper-vmtp}

   The paper's configuration: sequential walk, no flow cache, stack
   programs interpreted, two single-CPU hosts on the 10 Mb/s link. A
   closed-loop user-level VMTP client (read batching on) on the receiver
   runs the paper's two measurements one after the other: minimal
   transactions (table 6-2), then bulk transactions with maximum-size
   responses (table 6-3). Beside it, an open-loop stream of 128-byte Pup
   packets to 12 higher-priority ports, so every VMTP frame walks 12
   filters first. *)

let vmtp_minimal_calls = 10_000

(* 1,024 maximum-size responses: 16 times table 6-3's 1 MB segment. *)
let vmtp_bulk_calls = 1_024
let vmtp_chunk = 500
let vmtp_minimal = 8 (* response bytes of a minimal transaction *)
let pup_ports = 12

(* The packet-filter share of the paper's §6.1 production profile: 1.3
   million packets in 28 hours, 21% of them to the packet filter. *)
let pup_rate_pps = 0.21 *. 1.3e6 /. (28. *. 3600.)
let pup_bytes = 128
let pup_seq_off = 120
let server_entity = 0x5eedl
let client_entity = 0xc11el

let paper_config pf =
  Pfdev.set_strategy pf `Sequential;
  Pfdev.set_cache_enabled pf false;
  Pfdev.set_compile_strategy pf `Off

(* Request: sequence number, then 1 for a bulk response. The response
   echoes the sequence number in its first four bytes. *)
let request seq ~bulk =
  let b = Builder.create ~capacity:5 () in
  Builder.add_word32 b (Int32.of_int seq);
  Builder.add_byte b (if bulk then 1 else 0);
  Builder.to_packet b

let handler req =
  let seq = seq_of req ~off:0 in
  let len = if Packet.length req > 4 && Packet.byte req 4 = 1 then Vmtp.max_response else vmtp_minimal in
  let b = Bytes.make len '\x5a' in
  Bytes.set_int32_be b 0 (Int32.of_int seq);
  Packet.of_bytes b

let vmtp_world ~gen ~readers ~on_read =
  let engine = Engine.create () in
  let link = Link.create engine Frame.Dix10 ~rate_mbit:10. () in
  let server_host = Host.create link ~name:"server" ~addr:(Addr.eth_host 1) in
  let rx = Host.create link ~name:"client" ~addr:(Addr.eth_host 2) in
  let src = Nic.create link ~addr:(Addr.eth_host 3) in
  Trace.span "pfdev.configure" (fun () ->
      paper_config (Host.pf server_host);
      paper_config (Host.pf rx));
  let ports =
    Array.init pup_ports (fun i ->
        let port = Trace.span "pfdev.open_port" (fun () -> Pfdev.open_port (Host.pf rx)) in
        Trace.span "pfdev.set_filter" (fun () ->
            set_filter_exn port (Gen.filter ~priority:10 (Gen.flow gen i)));
        if readers then
          ignore
            (Host.spawn rx ~name:"pup-reader" (fun () ->
                 let last = ref (-1) in
                 while true do
                   match Pfdev.read port with
                   | Some cap -> on_read ~flow:i ~last cap
                   | None -> ()
                 done)
              : Process.t);
        port)
  in
  (engine, link, server_host, rx, src, ports)

(* The end-to-end metrics each phase stands for: latency and CPU per op
   from the minimal calls, goodput from the bulk calls. *)
let minimal_metrics =
  [ "sim_lat_p50_us"; "sim_lat_p99_us"; "sim_lat_p999_us"; "sim_lat_max_us"; "sim_lat_samples";
    "sim_capacity_ops"; "sim_cpu_us_per_op" ]

let bulk_metrics = [ "sim_goodput_kbs" ]

let run_vmtp ~seed =
  let gen =
    Gen.make ~blend:[ (Gen.Pup, 1.) ] ~frame_bytes:pup_bytes ~seed ~flows:pup_ports
      ~skew:Gen.Uniform ()
  in
  let pup_programs = Array.init pup_ports (fun i -> Gen.filter ~priority:10 (Gen.flow gen i)) in
  if max_read_byte (Array.to_list pup_programs) >= pup_seq_off then
    failwith "the sequence stamp overlaps a filter's read set";
  let minimal = Ops.create () and bulk = Ops.create () and pups = Ops.create () in
  let engine_ref = ref None in
  let pup_reads = ref 0 in
  let on_read ~flow ~last cap =
    Trace.span "check" (fun () ->
        incr pup_reads;
        deliver pups ~engine:(Option.get !engine_ref) ~off:pup_seq_off ~flow ~last cap)
  in
  let t_setup = wall () in
  let engine, link, server_host, rx, src, pup_port =
    Trace.span "world.build" (fun () -> vmtp_world ~gen ~readers:true ~on_read)
  in
  engine_ref := Some engine;
  let server =
    Trace.span "vmtp.server" (fun () ->
        Vmtp.server server_host (Vmtp.User { batch = true }) ~entity:server_entity ~handler)
  in
  let client =
    Trace.span "vmtp.client" (fun () ->
        Vmtp.client rx (Vmtp.User { batch = true }) ~entity:client_entity)
  in
  let hosts = [ server_host; rx ] in
  let t0 = Trace.span "engine.run" (fun () -> quiesce engine hosts) in
  let before = List.map (snap ~horizon:t0) hosts in
  let events0 = Engine.events_processed engine in
  let rng = Rng.create ((seed * 7919) + 17) in
  let finished = ref false in
  let resp_pkts = ref 0 in
  let chunks = chunker vmtp_chunk in
  let lateness = ref 0 and qdepth = ref 0 in
  let frames = ref [] in
  (* When the minimal phase ended, and the counters then. *)
  let middle = ref None in
  let call ops ~bulk =
    let due = Engine.now engine in
    let id = Ops.add ops ~due ~flow:0 ~counted:true in
    let want = if bulk then Vmtp.max_response else vmtp_minimal in
    match
      Vmtp.call client ~server:server_entity ~server_addr:(Addr.eth_host 1) (request id ~bulk)
    with
    | None -> ops.Ops.fail_at.(id) <- Engine.now engine
    | Some r ->
      Trace.span ~op:id "check" (fun () ->
          if Packet.length r <> want || seq_of r ~off:0 <> id then
            misdeliver "call %d: wrong response (%d bytes)" id (Packet.length r);
          resp_pkts := !resp_pkts + ((want + Vmtp.packet_data - 1) / Vmtp.packet_data);
          Ops.complete ops id ~now:(Engine.now engine) ~bytes:want)
  in
  Engine.schedule engine ~at:t0 (fun () ->
      ignore
        (Host.spawn rx ~name:"vmtp-client" (fun () ->
             for i = 1 to vmtp_minimal_calls do
               call minimal ~bulk:false;
               tick chunks i
             done;
             let t = Engine.now engine in
             middle := Some (t, List.map (snap ~horizon:t) hosts);
             for _ = 1 to vmtp_bulk_calls do
               call bulk ~bulk:true
             done;
             finished := true)
          : Process.t));
  (* The Pup stream: Poisson arrivals at exact simulated times until the
     client is done. *)
  let rec arrive due () =
    if not !finished then begin
      lateness := max !lateness (Engine.now engine - due);
      let flow = (Gen.draw gen).Gen.index in
      let id = Ops.add pups ~due ~flow ~counted:false in
      qdepth := max !qdepth (Pfdev.poll pup_port.(flow));
      let frame = stamp (Gen.frame (Gen.flow gen flow)) ~off:pup_seq_off ~to_reader:true id in
      if id < sample_cap then frames := (frame, flow) :: !frames;
      Trace.span ~op:id "nic.send_frame" (fun () -> Nic.send_frame src frame);
      let gap =
        max 1 (int_of_float (Float.round (Rng.exponential rng ~mean:(1e6 /. pup_rate_pps))))
      in
      Engine.schedule engine ~at:(due + gap) (arrive (due + gap))
    end
  in
  Engine.schedule engine ~at:t0 (arrive t0);
  Trace.span "engine.run" (fun () -> run_until_first_packet engine hosts);
  let setup_s = wall () -. t_setup in
  if !setup_only then raise (Setup_done setup_s);
  let t_traffic = wall () in
  Trace.span "engine.run" (fun () ->
      while not !finished do
        Engine.run ~until:(Engine.now engine + 10_000_000) engine
      done);
  let traffic_s = wall () -. t_traffic in
  let t_end = Engine.now engine in
  let t_mid, at_mid = Option.get !middle in
  let after = List.map (snap ~horizon:t_end) hosts in
  let phase = { before; after } in
  let costs = Host.costs rx in
  (* Protocol and send-path CPU, attributed from what the benchmark knows
     about each call (no retransmissions assumed; those stay
     unattributed). Vmtp also charges a header inspection for every
     captured packet; its cost is internal to Vmtp, neither a counter nor
     a Costs field, so it stays unattributed too. *)
  let per_packet = costs.Costs.proto_user_per_packet + Vmtp.default_user_overhead in
  let stat_of h key = Stats.get (Host.stats h) key in
  let d h key = stat_of h key - stat (List.nth before (if h == rx then 1 else 0)) key in
  let writes = d rx "pf.writes" + d server_host "pf.writes" in
  let pup_sent_bytes = pups.Ops.n * pup_bytes in
  let written_bytes = Link.bytes_carried link - pup_sent_bytes in
  let proto = per_packet * (d rx "pf.writes" + d server_host "pf.reads.delivered" + (2 * !resp_pkts)) in
  let send =
    (writes * (costs.Costs.copy_base + costs.Costs.send_path))
    + ((costs.Costs.copy_per_kbyte + costs.Costs.send_per_kbyte) * written_bytes / 1024)
  in
  (* VMTP's reads are the syscalls that are not writes: one per client
     request and one write_batch per server response. *)
  let read_syscalls =
    dstat phase "pf.syscalls" - d rx "pf.writes" - Vmtp.requests_served server
  in
  let reads = read_syscalls and read_pkts = dstat phase "pf.reads.delivered" in
  let calls = Ops.concat minimal bulk in
  let over ~phase ~ops ~t_start ~t_end =
    common_sim ~costs ~engine ~link ~phase ~ops ~deadline:t_end ~t_start ~t_end ~reads ~read_pkts
      ~qdepth:!qdepth
      ~extra_ledger:[ ("proto", float_of_int proto); ("send", float_of_int send) ]
      ~rx_hosts:hosts
  in
  let whole = over ~phase ~ops:calls ~t_start:t0 ~t_end in
  let in_minimal = over ~phase:{ before; after = at_mid } ~ops:minimal ~t_start:t0 ~t_end:t_mid in
  let in_bulk = over ~phase:{ before = at_mid; after } ~ops:bulk ~t_start:t_mid ~t_end in
  let pick from keys = List.map (fun k -> (k, List.assoc k from)) keys in
  let both prefix from = List.map (fun (k, v) -> (prefix ^ k, v)) (pick from (minimal_metrics @ bulk_metrics)) in
  let sim =
    pick in_minimal minimal_metrics
    @ pick in_bulk bulk_metrics
    @ List.filter (fun (k, _) -> not (List.mem k (minimal_metrics @ bulk_metrics))) whole
    @ both "minimal." in_minimal
    @ both "bulk." in_bulk
    @ [
        ("pup_pkts", float_of_int pups.Ops.n);
        ("pup_delivered",
          float_of_int (Array.fold_left (fun k t -> if t >= 0 then k + 1 else k) 0 pups.Ops.done_at));
      ]
  in
  let frames = Array.of_list (List.rev !frames) in
  {
    setup_s;
    chunks = List.rev chunks.per_op;
    traffic_s;
    events = Engine.events_processed engine - events0;
    sim;
    attempted = Ops.attempted calls;
    failed = Ops.failed calls;
    lateness = !lateness;
    layers =
      {
        programs = Array.append pup_programs [| Pf_filter.Predicates.vmtp_dst_entity client_entity |];
        frames = Array.map fst frames;
        frame_prog = Array.map snd frames;
        regvm = false;
        fresh =
          (fun () ->
            let _, _, _, rx, _, ports =
              vmtp_world ~gen ~readers:false ~on_read:(fun ~flow:_ ~last:_ _ -> ())
            in
            (rx, ports));
        replacements = Array.init 256 (fun k -> pup_programs.(k mod pup_ports));
      };
  }

(* {1 Direct layer timings (traced run)} *)

let layer_timings (l : layer_ctx) =
  let validated = Array.map Validate.check_exn l.programs in
  let nprog = Array.length l.programs in
  let frames = l.frames in
  let nf = max 1 (Array.length frames) in
  (* Each frame against its own program and against a fixed other one:
     one accept and (mostly) one reject per frame. *)
  let pairs =
    Array.init nf (fun i ->
        let own = if l.frame_prog.(i) >= 0 then l.frame_prog.(i) else i mod nprog in
        (own, (own + 1 + (i mod max 1 (nprog - 1))) mod nprog))
  in
  let run =
    if l.regvm then
      let vms = Array.map Regvm.compile validated in
      fun k f -> Regvm.run vms.(k) f
    else
      let fs = Array.map Fast.compile validated in
      fun k f -> Fast.run fs.(k) f
  in
  let apply_ns =
    Trace.span "filter.apply" (fun () ->
        time_per ~items:(2 * nf) (fun () ->
            Array.iteri
              (fun i (a, b) ->
                ignore (run a frames.(i) : bool);
                ignore (run b frames.(i) : bool))
              pairs))
    *. 1e9
  in
  let entries = Array.to_list (Array.mapi (fun i v -> (v, i)) validated) in
  let builds = ref [] in
  let automaton = ref None in
  Trace.span "dispatch.build" (fun () ->
      let t0 = wall () in
      while List.length !builds < 3 || wall () -. t0 < 0.1 do
        let t = wall () in
        automaton := Some (Dispatch.build entries);
        builds := (wall () -. t) :: !builds
      done);
  let d = Option.get !automaton in
  let classify_ns =
    Trace.span "dispatch.classify" (fun () ->
        time_per ~items:nf (fun () ->
            Array.iter (fun f -> ignore (Dispatch.classify d f : (int * int) option * Dispatch.stats)) frames))
    *. 1e9
  in
  (* The install pipeline's stages, per program. *)
  let per_program name f =
    Trace.span name (fun () ->
        time_per ~items:nprog (fun () ->
            for k = 0 to nprog - 1 do
              f k
            done))
    *. 1e6
  in
  let validate_us =
    per_program "validate.check" (fun k ->
        ignore (Validate.check l.programs.(k) : (Validate.t, Validate.error) result))
  in
  let analyze_us =
    per_program "analysis.analyze" (fun k -> ignore (Analysis.analyze validated.(k) : Analysis.t))
  in
  let regvm_us =
    per_program "regvm.compile" (fun k -> ignore (Regvm.compile validated.(k) : Regvm.t))
  in
  (* Demultiplexing replay: the workload's frames straight through
     Pfdev.demux on the receive CPU steering picks, on a fresh device of
     the same configuration (no readers; only the demux calls are timed). *)
  let rx, _ = Trace.span "world.build" (fun () -> l.fresh ()) in
  let pf = Host.pf rx in
  let engine = Host.engine rx in
  Engine.run engine;
  let demux_total = ref 0. and demuxed = ref 0 in
  Trace.span "pfdev.demux" (fun () ->
      let t0 = wall () in
      while !demuxed = 0 || wall () -. t0 < 0.1 do
        let t = wall () in
        Array.iter (fun f -> ignore (Pfdev.demux pf ~cpu:(Pfdev.steer pf f) f : bool)) frames;
        demux_total := !demux_total +. (wall () -. t);
        demuxed := !demuxed + nf;
        Engine.run engine
      done);
  let demux_ns = !demux_total /. float_of_int !demuxed *. 1e9 in
  [
    ("filter.apply_ns", apply_ns);
    ("dispatch.build_ms", median !builds *. 1e3);
    ("dispatch.classify_ns", classify_ns);
    ("install.validate_us", validate_us);
    ("install.analyze_us", analyze_us);
    ("install.regvm_us", regvm_us);
    ("pfdev.demux_ns_per_pkt", demux_ns);
  ]

(* Control-plane replay: on a fresh device of the workload's
   configuration, repeatedly close the oldest port, then open a port and
   install a program (port-churn's own next flows; elsewhere the
   workload's programs again). Each call is timed on its own, outside any
   simulated process. *)
let ctl_replay (l : layer_ctx) =
  let rx, ports = Trace.span "world.build" (fun () -> l.fresh ()) in
  let pf = Host.pf rx in
  let engine = Host.engine rx in
  Engine.run engine;
  let closes = ref [] and installs = ref [] and ctl = ref [] in
  let live = Queue.create () in
  Array.iter (fun p -> Queue.push p live) ports;
  Trace.span "ctl.replay" (fun () ->
      Array.iter
        (fun prog ->
          let victim = Queue.pop live in
          let t = wall () in
          Trace.span "pfdev.close_port" (fun () -> Pfdev.close_port victim);
          let t1 = wall () in
          let port = Trace.span "pfdev.open_port" (fun () -> Pfdev.open_port pf) in
          let t2 = wall () in
          Trace.span "pfdev.set_filter" (fun () -> set_filter_exn port prog);
          let t3 = wall () in
          Queue.push port live;
          closes := (t1 -. t) :: !closes;
          installs := (t3 -. t2) :: !installs;
          ctl := (t1 -. t) :: (t3 -. t1) :: !ctl)
        l.replacements;
      Engine.run engine);
  let us l = List.map (fun x -> x *. 1e6) l in
  let sorted l = Array.of_list (List.sort compare (us l)) in
  [
    ("install.us_p50", percentile (sorted !installs) 0.5);
    ("install.us_p99", percentile (sorted !installs) 0.99);
    ("close.us_p50", percentile (sorted !closes) 0.5);
    ("ctl_us_per_op", median (us !ctl));
  ]

(* {1 The delivery-lock collapse, reproduced}

   16 ports, uniform Traffic.Gen mix, one blocking read loop per port,
   1,000 packets injected at 500 pps, 12 s simulated. Returns packets
   delivered and delivery-lock spin. *)
let collapse_repro ~seed ~ncpus =
  let engine = Engine.create () in
  let link = Link.create engine Frame.Dix10 ~rate_mbit:10. () in
  let rx = Host.create ~ncpus link ~name:"rx" ~addr:(Addr.eth_host 2) in
  let pf = Host.pf rx in
  let gen = Gen.make ~seed ~flows:16 ~skew:Gen.Uniform () in
  let delivered = ref 0 in
  for i = 0 to 15 do
    let port = Pfdev.open_port pf in
    set_filter_exn port (Gen.filter (Gen.flow gen i));
    ignore
      (Host.spawn rx ~name:"reader" (fun () ->
           while true do
             match Pfdev.read port with Some _ -> incr delivered | None -> ()
           done)
        : Process.t)
  done;
  for k = 0 to 999 do
    Engine.schedule engine ~at:(10_000 + (k * 2_000)) (fun () ->
        Host.inject rx (Gen.frame (Gen.draw gen)))
  done;
  Engine.run ~until:12_000_000 engine;
  (!delivered, (Pfdev.smp_stats pf).Pfdev.lock_wait_total_us)

(* {1 Driver} *)

let workloads = [ "paper-vmtp"; "tenants-zipf"; "port-churn" ]

let run_workload name ~seed =
  match name with
  | "paper-vmtp" -> run_vmtp ~seed
  | "tenants-zipf" -> run_open tenants ~seed
  | "port-churn" -> run_open churn ~seed
  | _ -> invalid_arg name

(* The gated metrics, as listed in BENCHMARK.json (the self-test checks
   the two agree). Every other metric is printed on a [metric] line. *)
let end_to_end =
  [
    ("sim_lat_p99_us", "us");
    ("sim_goodput_kbs", "KB/s");
    ("sim_capacity_ops", "ops/s");
    ("sim_cpu_us_per_op", "us/op");
    ("wall_us_per_op", "us/op");
    ("setup_s", "s");
    ("heap_peak_mb", "MB");
  ]

let per_layer =
  [
    ("fail_ratio", "ratio");
    ("filter.tested_per_pkt", "count");
    ("filter.insns_per_pkt", "count");
    ("filter.apply_ns", "ns");
    ("cache.hit_ratio", "ratio");
    ("cache.invalidations", "count");
    ("cache.evictions", "count");
    ("dispatch.rebuilds", "count");
    ("dispatch.build_ms", "ms");
    ("dispatch.exact_ratio", "ratio");
    ("dispatch.classify_ns", "ns");
    ("install.us_p50", "us");
    ("install.us_p99", "us");
    ("close.us_p50", "us");
    ("ctl_us_per_op", "us");
    ("install.validate_us", "us");
    ("install.analyze_us", "us");
    ("install.regvm_us", "us");
    ("smp.lock_wait_us", "us");
    ("smp.lock_contended_ratio", "ratio");
    ("smp.lock_wait_per_busy", "ratio");
    ("smp.ipis", "count");
    ("steer.busiest_cpu_share", "ratio");
    ("pfdev.overflow_drops", "count");
    ("pfdev.pkts_per_read", "count");
    ("pfdev.queue_depth_max", "count");
    ("pfdev.copy_us_per_op", "us/op");
    ("cpu.ctx_switches_per_op", "count");
    ("pfdev.syscalls_per_op", "count");
    ("host.driver_us_per_pkt", "us");
    ("pfdev.demux_us_per_pkt", "us");
    ("pfdev.demux_ns_per_pkt", "ns");
    ("link.utilization", "ratio");
    ("engine.events_per_op", "count");
    ("engine.ns_per_event", "ns");
    ("sim.driver_us_per_op", "us/op");
    ("sim.demux_us_per_op", "us/op");
    ("sim.syscall_us_per_op", "us/op");
    ("sim.ctxsw_us_per_op", "us/op");
    ("sim.lock_us_per_op", "us/op");
    ("sim.ipi_us_per_op", "us/op");
    ("sim.proto_us_per_op", "us/op");
    ("sim.send_us_per_op", "us/op");
    ("sim.control_us_per_op", "us/op");
    ("sim.unattributed_share", "ratio");
    ("trace.overhead_pct", "%");
  ]

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let usage () =
  prerr_endline
    "usage: pfbench --workload paper-vmtp|tenants-zipf|port-churn --seed N \
     --seconds S --trace 0|1 [--misdeliver-test]\n       pfbench --calibrate";
  exit 2

let calibrate () =
  let probe p = { p with ncpus = 1; churn_every = None; scan_share = 0.; rate_pps = 50.; packets = 4_000 } in
  List.iter
    (fun (name, p) ->
      let r = run_open (probe p) ~seed:1 in
      Printf.printf "%s 1-CPU capacity: %.6f ops/s (cpu %.3f us/op)\n%!" name
        (List.assoc "sim_capacity_ops" r.sim)
        (List.assoc "sim_cpu_us_per_op" r.sim))
    [ ("tenants-zipf", tenants); ("port-churn", churn) ]

let () =
  let workload = ref "" and seed = ref None and seconds = ref 10 and trace = ref 0 in
  let calib = ref false in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Some (int_of_string v); parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--calibrate" :: rest -> calib := true; parse rest
    | "--misdeliver-test" :: rest -> misdeliver_test := true; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !calib then (calibrate (); exit 0);
  let seed =
    match !seed with
    | Some s when List.mem !workload workloads && !seconds >= 1 && (!trace = 0 || !trace = 1) ->
      s
    | Some _ | None -> usage ()
  in
  let traced = !trace = 1 in
  let t_start = wall () in
  Printf.printf "workload %s seed %d seconds %d trace %d\n%!" !workload seed !seconds !trace;
  (* Repetitions of the whole seeded run until the time is spent: the
     simulated metrics must repeat bit for bit. In a traced run the
     repetitions alternate untraced and traced, for the overhead. *)
  let reps = ref [] and traced_reps = ref [] and setups = ref [] in
  (* The top heap after the first repetition: later repetitions reuse
     (and fragment) the same heap, by an amount that depends on how many
     fit in the time. *)
  let heap_mb = ref 0. in
  let budget_over () = wall () -. t_start >= float_of_int !seconds in
  (* Set-up alone, for about [s] seconds (at least one batch): spread over
     the run, so that its median does not hang on one moment. A batch
     repeats set-up until 5 ms of it have been timed, and gives the mean,
     raw and scaled by the reference timed just before and after it. *)
  let time_setups s =
    setup_only := true;
    let t0 = wall () in
    let batches = ref 0 in
    while !batches = 0 || wall () -. t0 < s do
      incr batches;
      let n = ref 0 and total = ref 0. in
      Gc.compact ();
      let before = Reference.now () in
      while !total < 0.005 do
        (try ignore (run_workload !workload ~seed : rep)
         with Setup_done s -> total := !total +. s);
        incr n
      done;
      let mean = !total /. float_of_int !n in
      let ref_us = (before +. Reference.now ()) /. 2. in
      setups := (mean, mean *. Reference.nominal_us /. ref_us) :: !setups
    done;
    setup_only := false
  in
  (try
     while
       List.length !reps < 2 || (traced && !traced_reps = []) || not (budget_over ())
     do
       (* Each repetition starts from a compacted heap, so that all of them
          start from the same state. *)
       Gc.compact ();
       let trace_this = traced && List.length !reps > List.length !traced_reps in
       if trace_this then begin
         Trace.reset ();
         Trace.enabled := true
       end;
       let r = Trace.span "run" (fun () -> run_workload !workload ~seed) in
       Trace.enabled := false;
       if r.lateness <> 0 then begin
         Printf.eprintf "error: generator ran %d us late\n" r.lateness;
         exit 4
       end;
       (* Keep the first repetition whole; of the others only the timings,
          so that retained data does not grow the heap from one
          repetition to the next. *)
       let r =
         match List.rev !reps with
         | [] ->
           heap_mb :=
             float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
             /. 1048576.;
           r
         | first :: _ ->
           if first.sim <> r.sim then begin
             prerr_endline "error: simulated metrics differ between two repetitions of one seed";
             exit 4
           end;
           { r with sim = []; layers = first.layers }
       in
       if trace_this then traced_reps := r :: !traced_reps else reps := r :: !reps;
       (* Set-up gets a tenth of the run's time, and at least 50 ms per repetition. *)
       time_setups (Float.max 0.05 (0.1 *. (r.setup_s +. r.traffic_s)))
     done
   with Misdelivery msg ->
     Printf.eprintf "MISDELIVERY: %s\n%!" msg;
     exit 3);
  if !misdeliver_test then begin
    prerr_endline "error: --misdeliver-test: the wrongly stamped packet was never caught";
    exit 5
  end;
  let reps = List.rev !reps in
  let first = List.hd reps in
  (* Wall clock per op is the low decile over all chunks. Interference
     from other work on the host only ever adds time, and it comes and
     goes within a second; the low decile of many short chunks follows
     the code, the median follows the neighbours (both are printed). A
     run whose generator stopped early (collapse) may have no whole
     chunk: it falls back to the whole traffic phase, unscaled. *)
  let chunks_of f rs =
    Array.of_list (List.sort compare (List.concat_map (fun r -> List.map f r.chunks) rs))
  in
  let per_op ?(f = snd) q rs =
    match chunks_of f rs with
    | [||] -> median (List.map (fun r -> r.traffic_s *. 1e6 /. float_of_int r.attempted) rs)
    | chunks -> percentile chunks q
  in
  while List.length !setups < 5 do
    time_setups 0.
  done;
  let setup_raw = median (List.map fst !setups) in
  let setup_s = median (List.map snd !setups) in
  (let a = Array.of_list (List.sort compare (List.map snd !setups)) in
   Printf.printf "setup batches %d: min %.6f p10 %.6f median %.6f p90 %.6f s (scaled)\n"
     (Array.length a) a.(0) (percentile a 0.1) (percentile a 0.5) (percentile a 0.9));
  let sim = first.sim @ [ ("engine.events_per_op", ratio first.events first.attempted) ] in
  let ns_per_event =
    median (List.map (fun r -> r.traffic_s *. 1e9 /. float_of_int (max 1 r.events)) reps)
  in
  let metrics =
    sim
    @ [
        ("wall_us_per_op", per_op 0.1 reps);
        ("wall_us_per_op_median", per_op 0.5 reps);
        ("wall_us_per_op_raw", per_op ~f:fst 0.1 reps);
        ("setup_s", setup_s);
        ("setup_s_raw", setup_raw);
        ("host.ref_us", median !Reference.seen);
        ("heap_peak_mb", !heap_mb);
        ("engine.ns_per_event", ns_per_event);
      ]
  in
  let metrics =
    if not traced then metrics @ ctl_replay first.layers
    else begin
      let traced_wall = per_op ~f:fst 0.1 !traced_reps in
      Trace.enabled := true;
      let layers =
        Trace.span "layers" (fun () -> layer_timings first.layers @ ctl_replay first.layers)
      in
      Trace.enabled := false;
      metrics @ layers @ [ ("trace.overhead_pct", 100. *. ((traced_wall /. per_op ~f:fst 0.1 reps) -. 1.)) ]
    end
  in
  let value name = match List.assoc_opt name metrics with Some v -> v | None -> failwith ("missing metric " ^ name) in
  Printf.printf "repetitions %d untraced, %d traced; %d ops attempted, %d failed per repetition\n"
    (List.length reps) (List.length !traced_reps) first.attempted first.failed;
  (match chunks_of snd reps with
  | [||] -> ()
  | a ->
    Printf.printf "wall chunks %d: min %.2f p10 %.2f p25 %.2f median %.2f p75 %.2f max %.2f us/op (scaled)\n"
      (Array.length a) a.(0) (percentile a 0.1) (percentile a 0.25) (percentile a 0.5)
      (percentile a 0.75) a.(Array.length a - 1));
  List.iter
    (fun (k, v) ->
      Printf.printf "metric %-28s %-24s %s\n" k (json_number v)
        (if List.mem_assoc k sim then "sim" else "wall"))
    metrics;
  if !workload = "tenants-zipf" then begin
    let d1, s1 = collapse_repro ~seed ~ncpus:1 in
    let d2, s2 = collapse_repro ~seed ~ncpus:2 in
    Printf.printf
      "collapse repro (16 ports, 1000 pkts at 500 pps, 12 s): 1 CPU delivered %d (lock spin %d us); \
       2 CPUs delivered %d (lock spin %d us)\n"
      d1 s1 d2 s2
  end;
  if traced then begin
    let dir = "perfbench-out" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let path = Filename.concat dir (Printf.sprintf "trace-%s-seed%d.jsonl" !workload seed) in
    Trace.write path;
    Printf.printf "spans %d written to %s; self time by span (last traced repetition + layer timings):\n" !Trace.len path;
    List.iter
      (fun (name, count, self) -> Printf.printf "  self %-20s %8d spans %10.3f ms\n" name count (self *. 1e3))
      (Trace.self_times ())
  end;
  let selected = if traced then per_layer else end_to_end in
  let fields =
    List.map
      (fun (name, unit) ->
        let v = value name in
        if not (Float.is_finite v) then failwith ("non-finite metric " ^ name);
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      selected
  in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    first.attempted first.failed (String.concat ", " fields)

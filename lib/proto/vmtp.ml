module Packet = Pf_pkt.Packet
module Builder = Pf_pkt.Builder
module Host = Pf_kernel.Host
module Pfdev = Pf_kernel.Pfdev
module Costs = Pf_sim.Costs
module Stats = Pf_sim.Stats
module Process = Pf_sim.Process
module Condition = Pf_sim.Condition
module Addr = Pf_net.Addr
module Frame = Pf_net.Frame
module Ethertype = Pf_net.Ethertype

type impl = User of { batch : bool } | Kernel

let max_response = 16 * 1024
let packet_data = 1024
let kind_request = 1
let kind_response = 2
let kind_ack = 3
let header_bytes = 16
let default_timeout = 500_000
let rexmit_timeout = 50_000
let max_retries = 8

(* The measured user-level implementation was an early prototype, "not of
   precisely equal quality" to the kernel one (§6.3): its per-packet
   protocol processing is a calibrated constant on top of the generic
   user-protocol cost. *)
let default_user_overhead = 1_600

(* Client packet filter ports keep the era-appropriate short input queue;
   a 16-packet burst against a slow reader overflows it, and recovery uses
   VMTP's selective-retransmission masks — the "dropped packets" component
   of the batching effect (§6.3). *)
let user_port_queue = 8

let all_parts_mask count = (1 lsl count) - 1

(* {1 Codec} *)

type header = {
  dst : int32;
  src : int32;
  kind : int;
  tid : int;
  index : int;
  count : int;
  data : Packet.t;
}

let encode ~dst ~src ~kind ~tid ~index ~count data =
  let b = Builder.create ~capacity:(header_bytes + Packet.length data) () in
  Builder.add_word32 b dst;
  Builder.add_word32 b src;
  Builder.add_byte b kind;
  Builder.add_byte b 0;
  Builder.add_word b tid;
  Builder.add_word b index;
  Builder.add_word b count;
  Builder.add_packet b data;
  Builder.to_packet b

let decode payload =
  if Packet.length payload < header_bytes then None
  else
    Some
      {
        dst = Packet.word32 payload 0;
        src = Packet.word32 payload 2;
        kind = Packet.byte payload 8;
        tid = Packet.word payload 5;
        index = Packet.word payload 6;
        count = Packet.word payload 7;
        data = Packet.sub payload ~pos:header_bytes ~len:(Packet.length payload - header_bytes);
      }

let frame_of host ~dst_addr payload =
  Frame.encode Frame.Dix10 ~dst:dst_addr ~src:(Host.addr host) ~ethertype:Ethertype.vmtp
    payload

let split_response data =
  let n = Packet.length data in
  if n > max_response then invalid_arg "Vmtp: response exceeds 16KB";
  let count = max 1 ((n + packet_data - 1) / packet_data) in
  List.init count (fun i ->
      let pos = i * packet_data in
      let len = min packet_data (n - pos) in
      (i, count, Packet.sub data ~pos ~len))

let masked_frames mask frames =
  List.filteri (fun i _ -> mask land (1 lsl i) <> 0) frames

let assemble parts count =
  Packet.concat (List.init count (fun i -> Hashtbl.find parts i))

(* {1 The kernel-resident engine} *)

type ktrans = {
  tid : int;
  parts : (int, Packet.t) Hashtbl.t;
  mutable expected : int option;
  mutable result : Packet.t option;
}

type kserver = {
  inbox : (int32 * Addr.t * int * Packet.t) Queue.t;
  scond : unit Condition.t;
  reply_cache : (int32, int * Packet.t list) Hashtbl.t;
  mutable served : int;
}

type kengine = {
  khost : Host.t;
  servers : (int32, kserver) Hashtbl.t;
  kclients : (int32, ktrans option ref * unit Condition.t) Hashtbl.t;
}

(* One engine per host; hosts are compared physically. *)
let engines : (Host.t * kengine) list ref = ref []

let ksend engine ~dst_addr payload =
  let c = Host.costs engine.khost in
  let bytes = Packet.length payload in
  Host.kernel_send engine.khost
    ~cost:
      (c.Costs.proto_kernel_per_packet + c.Costs.send_path
      + (c.Costs.send_per_kbyte * bytes / 1024))
    (frame_of engine.khost ~dst_addr payload)

let kernel_rx engine frame =
  let c = Host.costs engine.khost in
  match Frame.decode Frame.Dix10 frame with
  | None -> ()
  | Some (fh, payload) -> (
    match decode payload with
    | None -> Stats.incr (Host.stats engine.khost) "vmtp.garbage"
    | Some h ->
      Host.in_kernel engine.khost ~cost:c.Costs.proto_kernel_per_packet (fun () ->
          if h.kind = kind_request then begin
            match Hashtbl.find_opt engine.servers h.dst with
            | None -> Stats.incr (Host.stats engine.khost) "vmtp.no_server"
            | Some srv -> (
              match Hashtbl.find_opt srv.reply_cache h.src with
              | Some (tid, frames) when tid = h.tid ->
                (* Duplicate request: its index field is the client's
                   needed-parts mask; retransmit just those from the cache,
                   never waking the server (figure 2-3). *)
                Stats.incr (Host.stats engine.khost) "vmtp.dup_request";
                List.iter
                  (fun p -> ksend engine ~dst_addr:fh.Frame.src p)
                  (masked_frames h.index frames)
              | Some _ | None ->
                Host.in_kernel engine.khost ~cost:c.Costs.wakeup (fun () ->
                    Queue.push (h.src, fh.Frame.src, h.tid, h.data) srv.inbox;
                    ignore (Condition.signal srv.scond () : bool)))
          end
          else if h.kind = kind_response then begin
            match Hashtbl.find_opt engine.kclients h.dst with
            | None -> Stats.incr (Host.stats engine.khost) "vmtp.stray_response"
            | Some (slot, cond) -> (
              match !slot with
              | Some trans when trans.tid = h.tid && trans.result = None ->
                Hashtbl.replace trans.parts h.index h.data;
                trans.expected <- Some h.count;
                if Hashtbl.length trans.parts = h.count then begin
                  trans.result <- Some (assemble trans.parts h.count);
                  (* Wake the client first, then group-ack on its behalf. *)
                  Host.in_kernel engine.khost ~cost:c.Costs.wakeup (fun () ->
                      ignore (Condition.signal cond () : bool));
                  ksend engine ~dst_addr:fh.Frame.src
                    (encode ~dst:h.src ~src:h.dst ~kind:kind_ack ~tid:h.tid ~index:0
                       ~count:0 (Packet.of_string ""))
                end
              | Some _ | None ->
                Stats.incr (Host.stats engine.khost) "vmtp.stray_response")
          end
          (* Group-acks require no kernel action beyond the charge above:
             the reply cache is overwritten by the next transaction. *)))

let kengine_for host =
  match List.find_opt (fun (h, _) -> h == host) !engines with
  | Some (_, e) -> e
  | None ->
    let e = { khost = host; servers = Hashtbl.create 4; kclients = Hashtbl.create 4 } in
    engines := (host, e) :: !engines;
    Host.register_protocol host ~ethertype:Ethertype.vmtp (kernel_rx e);
    e

(* {1 Servers} *)

type server = {
  shost : Host.t;
  sentity : int32;
  mutable srunning : bool;
  mutable count_served : int;
  sport : Pfdev.port option; (* user impl *)
}

let user_server host ~batch ~overhead ~entity ~handler =
  let port = Pfdev.open_port (Host.pf host) in
  (match Pfdev.set_filter port (Pf_filter.Predicates.vmtp_dst_entity entity) with
  | Ok () -> ()
  | Error e ->
    invalid_arg (Format.asprintf "Vmtp.server: %a" Pfdev.pp_install_error e));
  let c = Host.costs host in
  let reply_cache : (int32, int * Packet.t list) Hashtbl.t = Hashtbl.create 8 in
  let srv = ref None in
  let body () =
    let self = Option.get !srv in
    let per_packet = c.Costs.proto_user_per_packet + overhead in
    let handle_capture (capture : Pfdev.capture) =
      Process.use_cpu per_packet;
      match Frame.decode Frame.Dix10 capture.Pfdev.packet with
      | None -> ()
      | Some (fh, payload) -> (
        match decode payload with
        | Some h when h.kind = kind_request -> (
          let reply_frames =
            match Hashtbl.find_opt reply_cache h.src with
            | Some (tid, frames) when tid = h.tid ->
              (* Duplicate: resend only the parts the mask asks for. *)
              masked_frames h.index frames
            | Some _ | None ->
              let response = handler h.data in
              self.count_served <- self.count_served + 1;
              let frames =
                List.map
                  (fun (index, count, chunk) ->
                    Process.use_cpu per_packet;
                    frame_of host ~dst_addr:fh.Frame.src
                      (encode ~dst:h.src ~src:entity ~kind:kind_response ~tid:h.tid
                         ~index ~count chunk))
                  (split_response response)
              in
              Hashtbl.replace reply_cache h.src (h.tid, frames);
              frames
          in
          if batch then Pfdev.write_batch port reply_frames
          else List.iter (Pfdev.write port) reply_frames)
        | Some _ | None -> ())
    in
    while self.srunning do
      if batch then List.iter handle_capture (Pfdev.read_batch port)
      else
        match Pfdev.read port with
        | Some capture -> handle_capture capture
        | None -> ()
    done
  in
  ignore (Host.spawn host ~name:"vmtp-server" body : Process.t);
  let s =
    { shost = host; sentity = entity; srunning = true; count_served = 0;
      sport = Some port }
  in
  srv := Some s;
  s

let kernel_server host ~entity ~handler =
  let engine = kengine_for host in
  let ks =
    { inbox = Queue.create (); scond = Condition.create (); reply_cache = Hashtbl.create 8;
      served = 0 }
  in
  Hashtbl.replace engine.servers entity ks;
  let c = Host.costs host in
  let srv = ref None in
  let body () =
    let self = Option.get !srv in
    while self.srunning do
      (* One system call blocks for the next complete request... *)
      Process.use_cpu c.Costs.syscall;
      match Queue.take_opt ks.inbox with
      | None -> ignore (Condition.await ks.scond : unit option)
      | Some (client, client_addr, tid, request) ->
        Process.use_cpu (Costs.copy_cost c ~bytes:(Packet.length request));
        let response = handler request in
        self.count_served <- self.count_served + 1;
        ks.served <- ks.served + 1;
        (* ...and one more submits the reply; the kernel segments and
           transmits it without further domain crossings. *)
        Process.use_cpu (c.Costs.syscall + Costs.copy_cost c ~bytes:(Packet.length response));
        let frames =
          List.map
            (fun (index, count, chunk) ->
              Process.use_cpu
                (c.Costs.proto_kernel_per_packet + c.Costs.send_path
                + (c.Costs.send_per_kbyte * (Packet.length chunk + header_bytes) / 1024));
              frame_of host ~dst_addr:client_addr
                (encode ~dst:client ~src:entity ~kind:kind_response ~tid ~index ~count chunk))
            (split_response response)
        in
        Hashtbl.replace ks.reply_cache client (tid, frames);
        List.iter (fun f -> Pf_net.Nic.send_frame (Host.nic host) f) frames
    done
  in
  ignore (Host.spawn host ~name:"vmtp-kserver" body : Process.t);
  let s =
    { shost = host; sentity = entity; srunning = true; count_served = 0; sport = None }
  in
  srv := Some s;
  s

let server ?(user_overhead = default_user_overhead) host impl ~entity ~handler =
  match impl with
  | User { batch } -> user_server host ~batch ~overhead:user_overhead ~entity ~handler
  | Kernel -> kernel_server host ~entity ~handler

let stop_server s =
  s.srunning <- false;
  match s.sport with Some port -> Pfdev.close_port port | None -> ()

let requests_served s = s.count_served

(* {1 Clients} *)

type client = {
  chost : Host.t;
  centity : int32;
  cimpl : impl;
  coverhead : int;
  mutable next_tid : int;
  cport : Pfdev.port option; (* user impl *)
  kslot : (ktrans option ref * unit Condition.t) option; (* kernel impl *)
}

let client ?(user_overhead = default_user_overhead) host impl ~entity =
  match impl with
  | User _ ->
    let port = Pfdev.open_port (Host.pf host) in
    Pfdev.set_queue_limit port user_port_queue;
    (match Pfdev.set_filter port (Pf_filter.Predicates.vmtp_dst_entity entity) with
    | Ok () -> ()
    | Error e ->
      invalid_arg (Format.asprintf "Vmtp.client: %a" Pfdev.pp_install_error e));
    { chost = host; centity = entity; cimpl = impl; coverhead = user_overhead;
      next_tid = 1; cport = Some port; kslot = None }
  | Kernel ->
    let engine = kengine_for host in
    let slot = (ref None, Condition.create ()) in
    Hashtbl.replace engine.kclients entity slot;
    { chost = host; centity = entity; cimpl = impl; coverhead = user_overhead;
      next_tid = 1; cport = None; kslot = Some slot }

let user_call ~batch ~timeout client ~server ~server_addr request =
  let port = Option.get client.cport in
  let c = Host.costs client.chost in
  let per_packet = c.Costs.proto_user_per_packet + client.coverhead in
  let tid = client.next_tid in
  client.next_tid <- client.next_tid + 1;
  let parts : (int, Packet.t) Hashtbl.t = Hashtbl.create 16 in
  let expected = ref None in
  let complete () =
    match !expected with Some n -> Hashtbl.length parts = n | None -> false
  in
  (* The needed-parts mask for a (re)request: everything, or the holes left
     by input-queue overflow — VMTP's selective retransmission. *)
  let needed_mask () =
    match !expected with
    | None -> all_parts_mask 16
    | Some n ->
      let rec go i acc =
        if i >= n then acc
        else go (i + 1) (if Hashtbl.mem parts i then acc else acc lor (1 lsl i))
      in
      go 0 0
  in
  let send_request () =
    Process.use_cpu per_packet;
    Pfdev.write port
      (frame_of client.chost ~dst_addr:server_addr
         (encode ~dst:server ~src:client.centity ~kind:kind_request ~tid
            ~index:(needed_mask ()) ~count:1 request))
  in
  let consume (capture : Pfdev.capture) =
    (* Header inspection is cheap; the full per-packet protocol processing
       is only paid for packets that advance the transaction — duplicates
       from selective retransmission are discarded early. *)
    Process.use_cpu 200;
    match Frame.payload Frame.Dix10 capture.Pfdev.packet with
    | None -> ()
    | Some payload -> (
      match decode payload with
      | Some h
        when h.kind = kind_response && h.tid = tid && not (Hashtbl.mem parts h.index) ->
        Process.use_cpu per_packet;
        Hashtbl.replace parts h.index h.data;
        expected := Some h.count
      | Some _ | None -> ())
  in
  (* Waiting for more of the current group uses the short retransmission
     interval; only completely-unanswered requests wait the full timeout. *)
  let rec attempt tries =
    if tries > max_retries then None
    else begin
      send_request ();
      collect tries
    end
  and collect tries =
    if complete () then begin
      let count = Option.get !expected in
      (* The group-ack rides on the next request (VMTP acks lazily); the
         server's reply cache is simply overwritten by the next
         transaction. *)
      Some (assemble parts count)
    end
    else begin
      (* An untouched transaction waits the full user timeout; once part of
         the group has arrived, holes are chased with the short selective
         retransmission interval. *)
      Pfdev.set_timeout port
        (Some (if !expected = None then timeout else rexmit_timeout));
      let got =
        if batch then Pfdev.read_batch port
        else match Pfdev.read port with Some cap -> [ cap ] | None -> []
      in
      match got with
      | [] -> attempt (tries + 1) (* timeout: re-request the missing parts *)
      | captures ->
        List.iter consume captures;
        collect tries
    end
  in
  attempt 1

let kernel_call ~timeout client ~server ~server_addr request =
  let c = Host.costs client.chost in
  let slot, cond = Option.get client.kslot in
  let tid = client.next_tid in
  client.next_tid <- client.next_tid + 1;
  let trans = { tid; parts = Hashtbl.create 16; expected = None; result = None } in
  slot := Some trans;
  let needed_mask () =
    match trans.expected with
    | None -> all_parts_mask 16
    | Some n ->
      let rec go i acc =
        if i >= n then acc
        else go (i + 1) (if Hashtbl.mem trans.parts i then acc else acc lor (1 lsl i))
      in
      go 0 0
  in
  let send_request () =
    let request_payload =
      encode ~dst:server ~src:client.centity ~kind:kind_request ~tid
        ~index:(needed_mask ()) ~count:1 request
    in
    Process.use_cpu
      (c.Costs.proto_kernel_per_packet + c.Costs.send_path
      + (c.Costs.send_per_kbyte * Packet.length request_payload / 1024));
    Pf_net.Nic.send_frame (Host.nic client.chost)
      (frame_of client.chost ~dst_addr:server_addr request_payload)
  in
  Process.use_cpu (c.Costs.syscall + Costs.copy_cost c ~bytes:(Packet.length request));
  (* one syscall + one copy-in: two crossings of the user/kernel boundary *)
  Stats.incr ~by:2 (Host.stats client.chost) "vmtp.kernel.crossings";
  let rec attempt tries =
    if tries > max_retries then None
    else begin
      send_request ();
      match trans.result with
      | Some r -> finish r
      | None -> (
        match Condition.await ~timeout cond with
        | Some () -> (
          match trans.result with Some r -> finish r | None -> attempt (tries + 1))
        | None -> ( match trans.result with Some r -> finish r | None -> attempt (tries + 1)))
    end
  and finish response =
    slot := None;
    (* The assembled message is copied out to the process in one transfer. *)
    Process.use_cpu (Costs.copy_cost c ~bytes:(Packet.length response));
    Stats.incr (Host.stats client.chost) "vmtp.kernel.crossings";
    Some response
  in
  attempt 1

let call ?(timeout = default_timeout) client ~server ~server_addr request =
  if Packet.length request > packet_data then
    invalid_arg "Vmtp.call: request exceeds one packet";
  Stats.incr (Host.stats client.chost) "vmtp.calls";
  match client.cimpl with
  | User { batch } -> user_call ~batch ~timeout client ~server ~server_addr request
  | Kernel -> kernel_call ~timeout client ~server ~server_addr request

let close_client client =
  match client.cport with Some port -> Pfdev.close_port port | None -> ()

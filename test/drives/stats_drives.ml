(* Seeded [Traffic.Gen] drives through [Host], one per device
   configuration whose counters must stay pinned: the paper's kernel at
   1 and 4 CPUs, dispatch + flow cache + register VM with a copy-all tap
   monitor and kernel-claimed frames at 1 and 4 CPUs, and a two-interface
   host whose devices share one stats table. Every drive ends with a
   reader draining the ports it can, so the user side counts too. *)

open Pf_kernel
module Engine = Pf_sim.Engine
module Packet = Pf_pkt.Packet
module Addr = Pf_net.Addr
module Frame = Pf_net.Frame
module Gen = Pf_monitor.Traffic.Gen

type drive = { name : string; host : Host.t; devices : Pfdev.t list }

(* The ethertype of the kernel-claimed frames: a host-wide kernel protocol
   consumes it, so the devices offer those frames to tap ports only. *)
let kernel_ethertype = 0x0806

let configure pf config =
  (match config with
  | `Paper ->
    Pfdev.set_strategy pf `Sequential;
    Pfdev.set_cache_enabled pf false;
    Pfdev.set_compile_strategy pf `Off
  | `Fast ->
    Pfdev.set_strategy pf `Dispatch;
    Pfdev.set_cache_enabled pf true;
    Pfdev.set_compile_strategy pf `Regvm);
  Pfdev.set_cache_capacity pf 16

let install_exn port program =
  match Pfdev.set_filter port program with
  | Ok () -> ()
  | Error e -> failwith (Format.asprintf "%a" Pfdev.pp_install_error e)

(* One port per generated flow, except every fifth flow (whose packets
   then match nothing); with [monitor], also an accept-everything copy-all
   tap port above them, with a short queue so it overflows. *)
let open_ports pf gen ~flows ~monitor =
  let ports = ref [] in
  if monitor then begin
    let m = Pfdev.open_port pf in
    install_exn m (Pf_filter.Program.with_priority Pf_filter.Predicates.accept_all 50);
    Pfdev.set_copy_all m true;
    Pfdev.set_tap m true;
    Pfdev.set_timestamps m true;
    Pfdev.set_queue_limit m 64;
    ports := [ m ]
  end;
  for i = flows - 1 downto 0 do
    if i mod 5 <> 4 then begin
      let p = Pfdev.open_port pf in
      install_exn p (Gen.filter (Gen.flow gen i));
      Pfdev.set_queue_limit p 1_000;
      ports := p :: !ports
    end
  done;
  !ports

(* Every seventh frame rewritten to the kernel protocol's ethertype. *)
let claimed frame =
  let b = Packet.to_bytes frame in
  Bytes.set_uint16_be b 12 kernel_ethertype;
  Packet.of_bytes b

let frames gen ~packets ~claim =
  List.mapi
    (fun i flow -> if claim && i mod 7 = 6 then claimed (Gen.frame flow) else Gen.frame flow)
    (Gen.sequence gen packets)

(* A boot-CPU reader that drains every port holding packets once. *)
let drain host ports =
  ignore
    (Host.spawn host ~name:"reader" (fun () ->
         List.iter
           (fun p -> if Pfdev.poll p > 0 then ignore (Pfdev.read_batch p : Pfdev.capture list))
           ports)
      : Pf_sim.Process.t);
  Engine.run (Host.engine host)

let mk_host ?ncpus link = Host.create ?ncpus link ~name:"rx" ~addr:(Addr.eth_host 2)

let single ~name ?ncpus ~config ~seed () =
  let eng = Engine.create () in
  let link = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
  let host = mk_host ?ncpus link in
  let pf = Host.pf host in
  let fast = config = `Fast in
  if fast then Host.register_protocol host ~ethertype:kernel_ethertype ignore;
  configure pf config;
  let gen = Gen.make ~seed ~flows:20 ~skew:(Gen.Zipf 1.0) () in
  let ports = open_ports pf gen ~flows:20 ~monitor:fast in
  Engine.run eng;
  List.iter (Host.inject host) (frames gen ~packets:400 ~claim:fast);
  Engine.run eng;
  drain host ports;
  { name; host; devices = [ pf ] }

(* Two interfaces on one 2-CPU host: the primary (paper kernel) fed by
   injection, the second (dispatch + cache) by a sender on its own
   segment. *)
let two_interfaces () =
  let eng = Engine.create () in
  let link1 = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
  let link2 = Pf_net.Link.create eng Frame.Dix10 ~rate_mbit:10. () in
  let host = mk_host ~ncpus:2 link1 in
  let pf1 = Host.pf host in
  let _, pf2 = Host.add_interface host link2 ~addr:(Addr.eth_host 2) in
  Host.register_protocol host ~ethertype:kernel_ethertype ignore;
  configure pf1 `Paper;
  configure pf2 `Fast;
  let gen1 = Gen.make ~seed:0x51A7 ~flows:20 ~skew:Gen.Uniform () in
  let gen2 = Gen.make ~seed:0x2F1E ~flows:20 ~skew:(Gen.Zipf 1.2) () in
  let ports1 = open_ports pf1 gen1 ~flows:20 ~monitor:false in
  let ports2 = open_ports pf2 gen2 ~flows:20 ~monitor:true in
  Engine.run eng;
  let sender = Pf_net.Nic.create link2 ~addr:(Addr.eth_host 9) in
  List.iteri
    (fun i frame -> Engine.schedule eng ~at:(i * 150) (fun () -> Pf_net.Nic.send_frame sender frame))
    (frames gen2 ~packets:300 ~claim:true);
  List.iter (Host.inject host) (frames gen1 ~packets:300 ~claim:false);
  Engine.run eng;
  drain host (ports1 @ ports2);
  { name = "two interfaces, 2 cpus"; host; devices = [ pf1; pf2 ] }

let all () =
  [
    single ~name:"paper, 1 cpu" ~config:`Paper ~seed:0x1987 ();
    single ~name:"paper, 4 cpus" ~ncpus:4 ~config:`Paper ~seed:0x1987 ();
    single ~name:"dispatch+cache+regvm, tap, claimed, 1 cpu" ~config:`Fast ~seed:0xC0DE ();
    single ~name:"dispatch+cache+regvm, tap, claimed, 4 cpus" ~ncpus:4 ~config:`Fast
      ~seed:0xC0DE ();
    two_interfaces ();
  ]

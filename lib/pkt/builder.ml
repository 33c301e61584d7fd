type t = { buf : Buffer.t }

let create ?(capacity = 64) () = { buf = Buffer.create capacity }
let add_byte t v = Buffer.add_uint8 t.buf (v land 0xff)
let add_word t v = Buffer.add_uint16_be t.buf (v land 0xffff)
let add_word32 t v = Buffer.add_int32_be t.buf v
let add_string t s = Buffer.add_string t.buf s
let add_packet t p = Buffer.add_string t.buf (Packet.to_string p)
let length t = Buffer.length t.buf

let patch_word t ~pos w =
  if pos < 0 || pos + 2 > Buffer.length t.buf then
    invalid_arg "Builder.patch_word: offset out of bounds";
  (* Buffer has no in-place write; rebuild through bytes. Builders are small
     and patching happens once per packet, so this is fine. *)
  let b = Buffer.to_bytes t.buf in
  Bytes.set_uint16_be b pos (w land 0xffff);
  Buffer.clear t.buf;
  Buffer.add_bytes t.buf b

let to_packet t = Packet.of_bytes (Buffer.to_bytes t.buf)

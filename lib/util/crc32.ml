(* Reflected CRC-32, polynomial 0xEDB88320, slicing-by-8. The state fits
   easily in an OCaml int (63-bit), so the whole computation is unboxed.

   [tables] holds eight 256-entry tables back to back: entry [k*256 + n]
   is the CRC contribution of byte [n] followed by [k] zero bytes, so
   eight input bytes fold into the state with eight independent lookups
   instead of eight dependent ones. *)

let tables =
  let t = Array.make 2048 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for i = 256 to 2047 do
    let prev = t.(i - 256) in
    t.(i) <- t.(prev land 0xFF) lxor (prev lsr 8)
  done;
  t

let[@inline] lookup k byte = Array.unsafe_get tables ((k lsl 8) lor byte)

(* The 32 bits at [i], little-endian, as a non-negative int. *)
let[@inline] word s i = Int32.to_int (String.get_int32_le s i) land 0xFFFFFFFF

let sub s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.sub";
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let last8 = pos + len - 8 in
  while !i <= last8 do
    let a = !c lxor word s !i and b = word s (!i + 4) in
    c :=
      lookup 7 (a land 0xFF)
      lxor lookup 6 ((a lsr 8) land 0xFF)
      lxor lookup 5 ((a lsr 16) land 0xFF)
      lxor lookup 4 (a lsr 24)
      lxor lookup 3 (b land 0xFF)
      lxor lookup 2 ((b lsr 8) land 0xFF)
      lxor lookup 1 ((b lsr 16) land 0xFF)
      lxor lookup 0 (b lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c :=
      lookup 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF)
      lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let string s = sub s 0 (String.length s)

let to_hex c = Printf.sprintf "%08x" (c land 0xFFFFFFFF)

let of_hex s =
  if String.length s <> 8 then None
  else
    match int_of_string_opt ("0x" ^ s) with
    | Some v when v >= 0 -> Some v
    | _ -> None

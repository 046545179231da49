(** CRC-32 (IEEE 802.3, the zlib/PNG polynomial), slicing-by-8: eight
    bytes per step through eight lookup tables, unboxed and allocation-free.

    Profile files and checkpoint manifests carry a trailing checksum so a
    truncated or torn write is {e detected} instead of silently parsing as
    a shorter-but-valid file. CRC-32 is enough: the threat model is
    crashes and partial writes, not adversaries. *)

(** [string s] is the CRC-32 of all of [s], as a non-negative int in
    [\[0, 0xFFFFFFFF\]]. *)
val string : string -> int

(** [sub s pos len] checksums the substring. Raises [Invalid_argument] on
    an out-of-bounds range. *)
val sub : string -> int -> int -> int

(** Eight lowercase hex digits, zero-padded — the on-disk spelling. *)
val to_hex : int -> string

(** Parses the [to_hex] spelling (eight hex digits); [None] otherwise. *)
val of_hex : string -> int option

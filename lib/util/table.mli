(** Plain-text, markdown, and CSV table rendering.

    All experiment output goes through this one renderer so every table
    shares a structure tests can assert on. *)

type align = Left | Right

type t = {
  title : string;
  header : string list;
  aligns : align list;
  rows : string list list;
}

(** Create an empty table.  [aligns] defaults to all-[Left]. *)
val make : title:string -> header:string list -> ?aligns:align list -> unit -> t

(** Append one row.  @raise Invalid_argument on a width mismatch. *)
val add_row : t -> string list -> t

val add_rows : t -> string list list -> t

(** ASCII box rendering. *)
val render : t -> string

val print : t -> unit

(** GitHub-flavoured markdown (pipes in cells are escaped). *)
val render_markdown : t -> string

(** RFC-4180-style CSV, header row first. *)
val render_csv : t -> string

type format = Text | Markdown | Csv

val render_as : format -> t -> string

(** Formatting helpers shared by experiment printers. *)
val fmt_float : ?decimals:int -> float -> string

val fmt_pct : float -> string

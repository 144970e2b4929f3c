(** Leveled stderr logging for the CLI and bench harness.

    The level defaults to [Warn] and can be raised either
    programmatically (the CLI's [--verbose]) or through the
    [ADCHECK_LOG] environment variable ([error], [warn], [info],
    [debug]). *)

type level = Error | Warn | Info | Debug

val set_level : level -> unit
val level : unit -> level

val error : ('a, unit, string, unit) format4 -> 'a
val warn : ('a, unit, string, unit) format4 -> 'a
val info : ('a, unit, string, unit) format4 -> 'a
val debug : ('a, unit, string, unit) format4 -> 'a

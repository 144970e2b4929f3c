(** Lines-of-code accounting, per file and per module.

    [physical] counts non-blank lines (the figure Lizard and the paper
    report); [comment] counts lines carrying a comment; [logical] counts
    statement nodes.  {!Style.scan} counts the lines and {!Census} the
    statements. *)

type counts = {
  physical : int;
  blank : int;
  comment : int;
  logical : int;
  total : int;  (** raw line count *)
}

let zero = { physical = 0; blank = 0; comment = 0; logical = 0; total = 0 }

let add a b =
  {
    physical = a.physical + b.physical;
    blank = a.blank + b.blank;
    comment = a.comment + b.comment;
    logical = a.logical + b.logical;
    total = a.total + b.total;
  }

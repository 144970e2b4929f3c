(** The three ISO 26262 Part 6 guideline tables the paper assesses.

    Table numbering follows the paper: its Table 1 is ISO 26262-6 Table 1
    (modeling and coding guidelines), its Table 2 is ISO 26262-6 Table 3
    (software architectural design), its Table 3 is ISO 26262-6 Table 8
    (software unit design and implementation).  Recommendation matrices
    are copied verbatim from the paper. *)

type table = Coding | Architecture | Unit_design

val table_name : table -> string

(** One guideline topic: its table, 1-based row index, title, and
    per-ASIL recommendation strengths. *)
type topic = {
  table : table;
  index : int;
  title : string;
  recs : Asil.rec_matrix;
}

(** Topic identifier used in reports and finding analyses, e.g. "T1.3". *)
val topic_id : topic -> string

(** The 8 modeling/coding guideline topics. *)
val coding : topic list

(** The 7 architectural-design topics. *)
val architecture : topic list

(** The 10 unit design and implementation topics. *)
val unit_design : topic list

(** All 25 topics, in table order. *)
val all : topic list

val find : table:table -> index:int -> topic option

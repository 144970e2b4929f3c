(** The three ISO 26262 Part 6 guideline tables assessed by the paper:

    - Table 1 of the paper = ISO 26262-6 Table 1, modeling and coding
      guidelines (topics 1-8);
    - Table 2 of the paper = ISO 26262-6 Table 3, software architectural
      design (topics 1-7);
    - Table 3 of the paper = ISO 26262-6 Table 8, software unit design and
      implementation (topics 1-10).

    Recommendation matrices are copied verbatim from the paper. *)

type table = Coding | Architecture | Unit_design

let table_name = function
  | Coding -> "Modeling/coding guidelines (ISO 26262-6 Table 1)"
  | Architecture -> "Architectural design (ISO 26262-6 Table 3)"
  | Unit_design -> "Unit design & implementation (ISO 26262-6 Table 8)"

let table_tag = function
  | Coding -> "T1"
  | Architecture -> "T3"
  | Unit_design -> "T8"

type topic = {
  table : table;
  index : int;
  title : string;
  recs : Asil.rec_matrix;
}

let topic_id t = Printf.sprintf "%s.%d" (table_tag t.table) t.index

let t ~table ~index ~title (a, b, c, d) =
  { table; index; title; recs = { Asil.a; b; c; d } }

open Asil

let coding =
  [
    t ~table:Coding ~index:1 ~title:"Enforcement of low complexity" (pp, pp, pp, pp);
    t ~table:Coding ~index:2 ~title:"Use of language subsets" (pp, pp, pp, pp);
    t ~table:Coding ~index:3 ~title:"Enforcement of strong typing" (pp, pp, pp, pp);
    t ~table:Coding ~index:4 ~title:"Use of defensive implementation techniques" (o, p, pp, pp);
    t ~table:Coding ~index:5 ~title:"Use of established design principles" (p, p, p, pp);
    t ~table:Coding ~index:6 ~title:"Use of unambiguous graphical representation" (p, pp, pp, pp);
    t ~table:Coding ~index:7 ~title:"Use of style guides" (p, pp, pp, pp);
    t ~table:Coding ~index:8 ~title:"Use of naming conventions" (pp, pp, pp, pp);
  ]

let architecture =
  [
    t ~table:Architecture ~index:1 ~title:"Hierarchical structure of software components" (pp, pp, pp, pp);
    t ~table:Architecture ~index:2 ~title:"Restricted size of software components" (pp, pp, pp, pp);
    t ~table:Architecture ~index:3 ~title:"Restricted size of interfaces" (p, p, p, p);
    t ~table:Architecture ~index:4 ~title:"High cohesion within each software component" (p, pp, pp, pp);
    t ~table:Architecture ~index:5 ~title:"Restricted coupling between software components" (p, pp, pp, pp);
    t ~table:Architecture ~index:6 ~title:"Appropriate scheduling properties" (pp, pp, pp, pp);
    t ~table:Architecture ~index:7 ~title:"Restricted use of interrupts" (p, p, p, pp);
  ]

let unit_design =
  [
    t ~table:Unit_design ~index:1 ~title:"One entry and one exit point in subprograms and functions" (pp, pp, pp, pp);
    t ~table:Unit_design ~index:2 ~title:"No dynamic objects or variables, or else online test during their creation" (p, pp, pp, pp);
    t ~table:Unit_design ~index:3 ~title:"Initialization of variables" (pp, pp, pp, pp);
    t ~table:Unit_design ~index:4 ~title:"No multiple use of variable names" (p, pp, pp, pp);
    t ~table:Unit_design ~index:5 ~title:"Avoid global variables or else justify their usage" (p, p, pp, pp);
    t ~table:Unit_design ~index:6 ~title:"Limited use of pointers" (o, p, p, pp);
    t ~table:Unit_design ~index:7 ~title:"No implicit type conversions" (p, pp, pp, pp);
    t ~table:Unit_design ~index:8 ~title:"No hidden data flow or control flow" (p, pp, pp, pp);
    t ~table:Unit_design ~index:9 ~title:"No unconditional jumps" (pp, pp, pp, pp);
    t ~table:Unit_design ~index:10 ~title:"No recursions" (p, p, pp, pp);
  ]

let all = coding @ architecture @ unit_design

let find ~table ~index =
  List.find_opt (fun tp -> tp.table = table && tp.index = index) all

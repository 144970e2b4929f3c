(** 2D and 3D stencil CUDA kernels (the Figure 6 subject): run on the CPU
    via the interpreter's kernel-launch loop, their halo/saturation
    branches keep statement and branch coverage below 100%. *)

val files : (string * string) list
val parse_all : unit -> Cfront.Ast.tu list
val measured_files : (string * string) list
val entry : string

(** Text serialisation of netlists and global routings.

    Lets users bring their own designs and routes to the flow (the role
    SEGA's benchmark files played for the paper) and makes benchmark
    instances reproducible artefacts. Formats are line-oriented:

    Netlist ([.nets]):
    {v
    fpga 8
    net 0 (1,2) -> (3,4) (5,6)
    net 1 (0,0) -> (7,7)
    v}

    Global routing ([.routes], subnet order follows the netlist's star
    decomposition):
    {v
    fpga 8
    subnet 0 : V(1,2) H(1,3) V(2,2)
    v} *)

exception Parse_error of string
(** Raised with a message naming the line on malformed input; malformed
    input of any kind raises this and nothing else. *)

val max_size : int
(** The largest grid a header may declare (64; the bundled benchmarks go
    up to 11). Routing allocates per channel segment, 2(n+1)n of them, so
    a larger [fpga <n>] is a {!Parse_error}. *)

val netlist_to_string : Arch.t -> Netlist.t -> string
val netlist_of_string : string -> Arch.t * Netlist.t
val write_netlist : string -> Arch.t -> Netlist.t -> unit
val read_netlist : string -> Arch.t * Netlist.t

val routes_to_string : Global_route.t -> string
val routes_of_string : netlist:Netlist.t -> string -> Global_route.t
(** Validates the paths against the declared architecture and netlist. *)

val write_routes : string -> Global_route.t -> unit
val read_routes : netlist:Netlist.t -> string -> Global_route.t

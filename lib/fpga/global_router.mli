(** A congestion-negotiating maze global router (stands in for SEGA's
    global routings, see DESIGN.md).

    Each 2-pin subnet is routed by Dijkstra over the channel-segment graph;
    segment costs grow with present overuse and accumulated history, and the
    whole netlist is ripped up and rerouted for a few iterations — a small
    PathFinder. Deterministic: ties break on segment ids, and net ids only
    name nets, so any injective renumbering of them routes the same. *)

type params = {
  iterations : int;  (** Rip-up-and-reroute rounds. *)
  present_factor : float;  (** Cost weight of current sharing. *)
  history_factor : float;  (** Cost weight of accumulated congestion. *)
  capacity : int;  (** Soft per-segment net capacity being negotiated for. *)
}

val default_params : params

val route : ?params:params -> Arch.t -> Netlist.t -> Global_route.t
(** Routes every subnet. Always succeeds (costs are soft); congestion of the
    result is whatever the negotiation achieved — query it with
    {!Congestion}. *)

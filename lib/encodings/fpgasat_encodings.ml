(** The paper's primary contribution: SAT encodings for colouring CSPs.

    {!Encoding} names the 15 encodings (2 previously used, direct, and the
    12 new ones), each compiled to a {!Layout} of indexing Boolean patterns;
    {!Hierarchy} is the general composition framework of Sect. 4;
    {!Symmetry} implements the b1/s1 heuristics of Sect. 5; and
    {!Csp_encode} turns a {!Csp} instance into CNF and decodes models back
    into colourings. *)

module Layout = Layout
module Ite_tree = Ite_tree
module Simple_encoding = Simple_encoding
module Hierarchy = Hierarchy
module Encoding = Encoding
module Encoding_stats = Encoding_stats
module Registry = Registry
module Csp = Csp
module Symmetry = Symmetry
module Csp_encode = Csp_encode

"""Known answers for every job the benchmark generates, written by hand.

Each entry is (exit status, set of FAIL identity names).  They follow from
the mathematics and from how the controls are built, never from a run:

* Every groupoid algebra kG is a weak Hopf algebra with Delta(g) = g (x) g,
  eps(g) = 1, S(g) = g^-1; its transpose dual passes every axiom and is an
  involution, kG has a normalized integral exactly when it is separable,
  the function-algebra dual matches the transpose dual, and the
  unit-indexed sums span the integral spaces.  Over F_p the benchmark only
  uses primes above every groupoid order, so nothing changes.  Exit 0.
* The mutated antipode S'(x) = S(x) + x for a non-identity x: j -> i of
  the pair groupoid on two objects leaves Delta and eps alone, so every
  coalgebra and weak-multiplicativity law holds, S' stays bijective, and
  since x x = 0 both counital antipode axioms still hold:
  x S'(x) = x x^-1 = eps_t(x) and S'(x) x = x^-1 x = eps_s(x).  It breaks
    antipode_sandwich         S'(x) x S'(x) = x^-1 != S'(x),
    s_anti_multiplicative     S'(x 1_j) = S'(x) but S'(1_j) S'(x) = x^-1,
    s_anti_comultiplicative   Delta S'(x) has no x^-1 (x) x term, while
                              S'(x) (x) S'(x) has one,
    antipode_unique           (eps_s * S')(x) = 1_j S'(x) = x^-1 != S'(x),
  and the counital/integral/dual stages are reported as skipped
  (downstream).  Exit 1.
* A malformed file is an input error.  Exit 2, no report.
* The Jones tower of a symmetric Markov extension passes every basic
  construction, braid, Pimsner-Popa and composite-idempotent identity at
  every level within the dimension budget, depth 2 or not.  Exit 0.
* Extensions whose relative commutant condition gives depth 2 (the ground
  field in Q^2, Q^3 and M_2, Q^2 in M_2, and the identity extension of
  M_2, the Hopf degeneration) pass the whole derivation.  The ground field
  in k^n with the normalized trace is the tensor case N (x) U of the
  sufficient condition (N = k central, U = k^n separable).  Exit 0.
* Q[Z2] inside Q[S3] is not depth 2 (the subgroup is not normal): the
  derivation stops at the depth-2 check.  Exit 1, FAIL depth2.
"""

PASS = (0, frozenset())

VERDICTS = {
    "verify-wha:groupoid": PASS,
    "groupoid-dual-integrals:groupoid": PASS,
    "verify-wha:mutated-antipode":
        (1, frozenset({"antipode_sandwich", "s_anti_multiplicative",
                       "s_anti_comultiplicative", "antipode_unique",
                       "downstream"})),
    "verify-wha:malformed": (2, frozenset()),
    "tower:q_in_q2": PASS,
    "tower:q_in_m2": PASS,
    "tower:q2_in_m2": PASS,
    "tower:trivial_m2": PASS,
    "tower:s3_z2": PASS,
    "tower-appendix:q_in_q2": PASS,
    "derive:q_in_q2": PASS,
    "derive:q_in_q3": PASS,
    "derive:q2_in_m2": PASS,
    "derive:trivial_m2": PASS,
    "derive:s3_z2": (1, frozenset({"depth2"})),
}

"""The public surface, pinned: a change to the exported names or to any
subcommand's flags shows up as a diff of this file."""

import argparse

import chebring
from chebring.cli import _build_parser

PUBLIC_NAMES = [
    "CharPair",
    "ChebPair",
    "DhParty",
    "ExpSumReport",
    "IntPolynomial",
    "PartitionTable",
    "PrimitiveRootReport",
    "ProtocolError",
    "PseudoprimeVerdict",
    "ResourceLimitError",
    "ShiftRefinement",
    "WieferichHit",
    "character_transport_check",
    "characters",
    "cheb_compose_check",
    "cheb_eval",
    "cheb_t",
    "chebyshev_poly_mod",
    "coefficient_formula",
    "conjugacy_check",
    "cyclotomic",
    "cyclotomic_factorization_check",
    "decode_fields",
    "dh_finish",
    "dh_keygen",
    "difference_lemma_check",
    "discrete_log_bruteforce",
    "divisors",
    "encode_fields",
    "euler_criterion_failures",
    "euler_phi",
    "euler_test",
    "euler_test_modp2",
    "factorize",
    "full_pseudoprime_test",
    "gauss_sums",
    "is_chebyshev_square",
    "is_prime",
    "jacobi",
    "lucas_lehmer",
    "lucas_step_check",
    "omega_order",
    "order_class_decomposition",
    "partition",
    "partition_sums",
    "prime_iff_power_check",
    "primes_in",
    "primes_upto",
    "primitive_root_search",
    "pseudoprime_search",
    "psi",
    "real_cyclotomic",
    "residue_shift_refinement",
    "shifted_character_sums",
    "shifted_congruence_check",
    "splitting_check",
    "splitting_roots",
    "strong_profile",
    "taxicab_search",
    "weak_pseudoprime_test",
    "weil_sum",
    "wieferich_search",
]

# Every subcommand's flags in parser order, without -h/--help.
SUBCOMMAND_FLAGS = {
    "eval": ["--format", "-a", "-n", "-m"],
    "characters": ["--format", "-a", "-p"],
    "euler": ["--format", "-a", "-p", "--mod-p2"],
    "partition": ["--format", "-p"],
    "orders": ["--format", "-p"],
    "splitting": ["--format", "-d", "-p"],
    "cyclo-check": ["--format", "-n"],
    "pseudoprimes": ["--format", "--threads", "--base", "--limit", "--kind"],
    "wieferich": ["--format", "--threads", "--base", "--limit"],
    "lucas-lehmer": ["--format", "-p"],
    "taxicab": ["--format", "--limit"],
    "expsum": ["--format", "-p"],
    "expsum-sweep": ["--format", "--max"],
    "primroot": ["--format", "-a", "--limit"],
    "dh-demo": ["--format", "--seed", "-p", "-g", "--secret-a", "--secret-b"],
    "dlog": ["--format", "-p", "-g", "-t"],
    "aks-check": ["--format", "-n", "--shift"],
    "coeff": ["--format", "-n", "-k"],
}


def test_public_names_pinned():
    assert chebring.__all__ == PUBLIC_NAMES
    assert all(hasattr(chebring, name) for name in PUBLIC_NAMES)


def test_subcommand_flags_pinned():
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        name: [opt for action in sub._actions for opt in action.option_strings if opt not in ("-h", "--help")]
        for name, sub in subparsers.choices.items()
    }
    assert flags == SUBCOMMAND_FLAGS

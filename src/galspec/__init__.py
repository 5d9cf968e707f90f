"""Galois specialization toolkit.

Exact-arithmetic machinery for one-parameter families of regular Galois
extensions of Q(t): predicting the ramification and Frobenius behaviour of
their rational specializations (tame inertia via intersection multiplicities),
searching for specializations that realize prescribed local conditions at
finitely many primes, and verifying every claim independently through p-adic
factorization shapes.

The package is organized bottom-up:

- ``arith``    exact rationals, valuations, CRT, primality
- ``poly``     generic dense polynomials, resultants, Newton polygons, parser
- ``ffact``    factorization over finite fields (squarefree/DDF/EDF)
- ``padic``    (e, f) shapes of p-adic factorizations, by inductive valuations
- ``permgrp``  small permutation groups, cycle types, orbit/subgroup analysis
- ``family``   family manifests, branch loci, nondegeneracy
- ``beckmann`` bad primes, bad residues, tame inertia predictions
- ``grunwald`` condition search (s0, t0), verification, identification, census
- ``cli``      command-line front end (parses arguments, prints results)
"""

__version__ = "0.1.0"

__all__ = [
    "arith",
    "poly",
    "ffact",
    "padic",
    "permgrp",
    "family",
    "beckmann",
    "grunwald",
    "cli",
]

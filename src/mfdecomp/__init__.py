"""Exact invariants and graded decompositions of rings of modular forms.

Modules:

* :mod:`.arith` -- factorisation, primality, and the readers of integers
  and of input-file lines;
* :mod:`.exactnum` -- rationals and 2-power cyclotomic arithmetic with
  exact 2-adic valuations;
* :mod:`.levels` -- indices, cusps, genera and dimension formulas for
  congruence subgroups;
* :mod:`.hilbert` -- cohomology of line bundles on weighted projective
  lines and Hilbert-function deconvolution;
* :mod:`.decomp` -- decomposition sequences into standard blocks, their
  verification, and the divisibility obstruction search;
* :mod:`.ringalg` -- free-basis certificates and regular sequences in
  graded polynomial algebras;
* :mod:`.eisenstein` -- Eisenstein series of 2-power-order characters and
  the lift of the mod-2 Hasse invariant;
* :mod:`.cli` -- the ``mfdecomp`` command-line tool.
"""

__version__ = "0.1.0"

"""singres: singular-locus analysis of sparse resultants of pairs of
univariate (Laurent) polynomial supports.

The package decides, for a pair of finite integer support sets, whether the
sparse resultant's singular locus is generically of nodal type and of
codimension 2, and verifies the underlying stratification, rank, and
singularity-type facts with exact and numeric computation: rational
arithmetic, and cyclotomic facts decided modulo primes that split
completely in Q(zeta_n).

Each name is imported from its module (`from singres.strata import
estimate_codim`): the package namespace holds only __version__, so
`import singres` loads no submodule.
"""

__version__ = "0.1.0"

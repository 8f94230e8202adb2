"""Distributional navigation planners and cohomological complexity certificates.

The package has three layers that meet in the command line tool:

* a ring engine: an exact rewrite engine for graded-commutative ring
  presentations (``gcring``) and a catalog of configuration-space,
  fiber-power, complex projective and sphere-bundle-tower presentations
  (``presentations``);
* certificates: builders that turn nonvanishing products of diagonal-kernel
  classes into lower bounds (``bounds``), and a small knowledge base of
  closed-form complexity values with provenance (``knowledge``);
* planners and verifiers: finitely supported probability measures with the
  Levy-Prokhorov metric (``measures``) and concrete distributed navigation
  planners on projective spaces, circles and the quaternion Hopf fibration
  (``navplan``).
"""

__version__ = "0.1.0"

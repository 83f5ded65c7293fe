"""Exact-arithmetic toolkit for certified ergodic averages.

Modules:
  arith        exact rationals, intervals, Q[sqrt(2)]
  spaces       circle and Cantor space as computable metric spaces, their
               points as memoized approximation oracles, yes/no ball
               membership
  regions      exact region algebra (arc unions, cylinder unions)
  measures     ideal measures, exact W1 transport, measures of ball unions
  observables  piecewise-linear and cylinder observables, canonical family
  dynamics     built-in systems (map and measure), Birkhoff averages, norms
  rates        convergence-rate certificates and their validators
  bc           Borel-Cantelli sequences and point synthesis
"""

__version__ = "0.1.0"

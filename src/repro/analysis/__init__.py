"""Statistics helpers and benchmark-output formatting.

- :mod:`repro.analysis.stats` -- small statistics helpers,
- :mod:`repro.analysis.tables` -- fixed-width table rendering,
- :mod:`repro.analysis.experiments` -- the paper-vs-measured report
  every benchmark prints.
"""

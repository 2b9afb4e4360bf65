"""Empty: the package's one Gauss rule is ``heatlab.GAUSS8``.

The module stays importable because ``perfbench/tracing.py`` lists it
among the modules of the ``semigroup`` layer; it goes when that list
drops it.
"""

"""Goldman and Bonahon-Dreyer/Fock-Goncharov coordinates for convex
projective structures on surfaces.

Modules
-------
spectral : eigenvalue algebra for boundary holonomies
pants    : pair-of-pants coordinate systems and their closed-form conversions
flags    : flag configurations, wedge-product oracle, holonomy reconstruction
surface  : pants decompositions, surface-level bundles, twist/bulge flows
fileio   : the JSON coordinate-file format
render   : SVG picture of the normalized flag configuration
sampling : random tuples for tests and demos
cli      : the `convexproj` command line tool
errors   : the CoordinateError hierarchy and each class's CLI exit code

Import each name from the module that defines it, e.g.
``from convexproj.pants import goldman_to_fg``.
"""

__version__ = "0.1.0"

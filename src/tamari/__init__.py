"""Maximal chains in the Tamari lattices: exact enumeration, bijections, counting.

Each name has one home, its module; importing the package loads none of them:

* :mod:`tamari.shapes`: Young-diagram vertices inside the staircase, Dyck paths,
  prime subpaths, strips and enclosures, and the covering relation (its kernel
  ``_steps``, on vertex codes);
* :mod:`tamari.tableaux`: chain tableaux (:class:`~tamari.tableaux.Tableau`), the
  encoding of chains and its inverse, and the full-set and plus-full-set
  classification of label sets;
* :mod:`tamari.bijections`: chain surgery, the growth map that inserts a
  plus-full-set, its inverse, and the decomposition into a plus-full-set-free base
  and growth levels;
* :mod:`tamari.counting`: the chain stream, the climbs that count chains by length
  and take the plus-full-set census, the initial values N_i(t) by two routes, and
  the recursion for #C_i(n);
* :mod:`tamari.fixtures`: the committed count tables;
* :mod:`tamari.cli`: the ``tamari`` command, which loads the five modules above;
* :mod:`tamari.checks`: the property suites of ``tamari verify``.
"""

__version__ = "0.1.0"

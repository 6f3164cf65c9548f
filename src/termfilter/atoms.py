"""Atomic constraints of the encodings.  An atom is a plain tuple whose first
item is its tag, so atoms hash and compare as tuples and no two kinds are
equal.  ``lowering.lower_atoms`` lowers each kind onto ``VarMap`` variables,
and refuses ``eq`` in strict mode and ``usable`` of a symbol with no flag:

========  =====  ===========================================  =======================
tag       items  meaning                                      lowering
========  =====  ===========================================  =======================
gt        f g    f strictly above g in the precedence         rank(f) > rank(g)
eq        f g    f ~ g in the precedence; symbol_key order    rank(f) = rank(g)
list      f      the filtering keeps f as an argument list    list(f)
in        f i    position i of f survives the filtering       keeps(f,i)
collapse  f i    the filtering collapses f to its argument i  keeps(f,i), not list(f)
usable    f      the rules of f must be oriented weakly       usable(f)
strict    i      pair number i decreases strictly             strict(i)
========  =====  ===========================================  =======================
"""


def describe(atom: tuple) -> str:
    """``(tag item ...)``, each symbol shown by its ``display`` name."""
    return "(" + " ".join([atom[0]] + [str(getattr(x, "display", x)) for x in atom[1:]]) + ")"

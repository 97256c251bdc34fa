"""
Defining a graded bracket structure and checking it
===================================================

A structure is four pieces of data on a chosen homogeneous basis: the
parities, the bracket constants, the cobracket constants, and the even
endomorphism that twists the Jacobi identities.  The checker reports
every axiom residual as an exact polynomial.
"""

from hlsb import (
    HomSuperBialgebra,
    ParamRing,
    SuperBasis,
    EvenMap,
    zero_bracket,
)

# two even basis vectors e1, e2 and one odd vector e3, over a ring with
# one invertible parameter a4
ring = ParamRing(["a4", "b4", "b5", "c5"], invertible=["a4"])
basis = SuperBasis([0, 0, 1], labels=["e1", "e2", "e3"])

# [e1, e2] = b4 e2 and [e1, e3] = b5 e3; the checker does not complete
# skew pairs for us, so both orders are written out
bracket = zero_bracket(ring, basis)
bracket[0][1][1] = ring.param("b4")
bracket[1][0][1] = -ring.param("b4")
bracket[0][2][2] = ring.param("b5")
bracket[2][0][2] = -ring.param("b5")

# the cobracket sends e1 to c5 e3 (x) e3 — an odd-odd square, which is
# already skew because swapping two odd symbols costs a sign
cobracket = zero_bracket(ring, basis)
cobracket[0][2][2] = ring.param("c5")

alpha = EvenMap.diagonal(ring, basis, [ring.one(), ring.param("a4"),
                                       -ring.one()])

B = HomSuperBialgebra(ring, basis, bracket, cobracket, alpha)
report = B.check(multiplicative=True)
print("valid family:", report.summary())

# one point of the family: substitute values for every parameter, which
# maps each bracket, cobracket and alpha cell into the rational constants
point = B.substitute({"a4": 2, "b4": -1, "b5": 3, "c5": "1/2"}, ring=ParamRing())
print("at a4=2, b4=-1, b5=3, c5=1/2:", point.check(multiplicative=True).summary())

# now sabotage one half of a skew pair and look at what the checker says
bad = zero_bracket(ring, basis)
bad[0][1][1] = ring.param("b4")
bad[1][0][1] = ring.param("b4")          # wrong sign
bad[0][2][2] = ring.param("b5")
bad[2][0][2] = -ring.param("b5")
broken = HomSuperBialgebra(ring, basis, bad, cobracket, alpha)
report = broken.check(multiplicative=True)
print("broken family:", report.summary())

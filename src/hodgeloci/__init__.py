"""Exact period series of Fermat-type hypersurface deformations, polynomial
foliation calculus (integrability, Frobenius powers mod p, tangency and
determinantal loci), and numeric sampling of the hypergeometric isogeny locus.
"""

__version__ = "0.1.0"

__all__ = ["__version__"]

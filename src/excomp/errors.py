"""Exception types shared across the package."""

from __future__ import annotations


class ExcompError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ExcompError):
    """Syntax or lexical error in a warping-function expression.

    Carries the byte offset of the offending token and the set of token
    kinds that would have been accepted there.
    """

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = tuple(expected)
        detail = f"{message} at byte offset {offset}"
        if self.expected:
            detail += " (expected: " + ", ".join(self.expected) + ")"
        super().__init__(detail)


class EvalDomainError(ExcompError):
    """Expression evaluated outside its real domain (ln(x<=0), sqrt(x<0), 1/0)."""


class DomainError(ExcompError):
    """Arguments outside an operation's stated preconditions."""


class QuadratureError(ExcompError):
    """Adaptive quadrature failed to reach the requested tolerance."""

    def __init__(self, message: str, achieved: float | None = None):
        self.achieved = achieved
        if achieved is not None:
            message += f" (achieved error estimate {achieved:.3e})"
        super().__init__(message)


class MeshFormatError(ExcompError):
    """Malformed OFF/OBJ input; carries a 1-based line number."""

    def __init__(self, message: str, lineno: int):
        self.lineno = lineno
        super().__init__(f"line {lineno}: {message}")


class NonManifoldError(ExcompError):
    """Mesh has edges shared by more than two triangles."""

    def __init__(self, edges):
        self.edges = list(edges)
        shown = ", ".join(f"({a},{b})" for a, b in self.edges[:8])
        more = "" if len(self.edges) <= 8 else f" and {len(self.edges) - 8} more"
        super().__init__(f"non-manifold edges: {shown}{more}")


class CoverageError(ExcompError):
    """Computational window too small for the requested extrinsic radius."""

    def __init__(self, message: str, radius: float):
        self.radius = radius
        super().__init__(message)


class TruncationContactError(ExcompError):
    """An extrinsic ball whose boundary touches the mesh truncation boundary."""


class SolveError(ExcompError):
    """Iterative solver failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float | None = None):
        self.residual = residual
        if residual is not None:
            message += f" (residual {residual:.3e})"
        super().__init__(message)

"""Exception hierarchy for the package, and the parsers of parameter values.

Every error raised deliberately by this package derives from
:class:`DarksteadyError`, so callers can catch one type at the boundary.

Every parameter value, from a config file or built in code, is checked by
one of the value parsers here, which turn the text of a value into the
value or raise ValueError with the message body; ``_check_values`` renders
a value built in code to its config text first.
"""

import math
import numbers
from dataclasses import fields


class DarksteadyError(Exception):
    """Base class for all errors raised by darksteady."""


class DimensionError(DarksteadyError):
    """Operands have incompatible or invalid shapes."""


class NumericalError(DarksteadyError):
    """A numerical routine failed to meet its accuracy contract."""


class StepSizeError(DarksteadyError):
    """Fixed integration step too large for the generator's spectral bound.

    Carries ``suggested_dt``, the largest step that satisfies the guard.
    """

    def __init__(self, message, suggested_dt=None):
        super().__init__(message)
        self.suggested_dt = suggested_dt


class NonUniqueSteadyState(DarksteadyError):
    """The generator's null space has dimension greater than one.

    ``stationary_basis`` holds one (unnormalized) matrix per null vector so
    the degenerate stationary sector can be inspected.  ``null_dimension``
    and ``spectral_gap`` mirror the certificate of the unique case.
    """

    def __init__(self, message, stationary_basis=None, null_dimension=None,
                 spectral_gap=None):
        super().__init__(message)
        self.stationary_basis = stationary_basis
        self.null_dimension = null_dimension
        self.spectral_gap = spectral_gap


class ConfigError(DarksteadyError):
    """Invalid configuration input: unknown key, bad value, broken invariant."""


class DomainError(DarksteadyError):
    """Argument outside the mathematical domain of a formula."""


_BOOLS = {
    **dict.fromkeys(("true", "1", "yes", "on"), True),
    **dict.fromkeys(("false", "0", "no", "off"), False),
}


def _bounded(kind, minimum=None, maximum=None, strict=False):
    """A finite ``kind`` (float or int) from ``minimum`` (above it if
    ``strict``) to ``maximum``."""
    what = "a number" if kind is float else "an integer"

    def parse(raw):
        try:
            val = kind(raw)
        except ValueError:
            raise ValueError(f"expected {what}, got {raw!r}") from None
        if val != val or abs(val) == math.inf:
            raise ValueError(f"value must be finite, got {raw!r}")
        if minimum is not None and (val <= minimum if strict else val < minimum):
            raise ValueError(f"must be {'>' if strict else '>='} {minimum}, got {val}")
        if maximum is not None and val > maximum:
            raise ValueError(f"must be <= {maximum}, got {val}")
        return val
    return parse


def _bool(raw):
    try:
        return _BOOLS[raw.strip().lower()]
    except KeyError:
        raise ValueError(f"expected true/false, got {raw!r}") from None


def _choice(choices):
    def parse(raw):
        if raw not in choices:
            raise ValueError(f"expected one of {', '.join(choices)}, got {raw!r}")
        return raw
    return parse


def _floats(minimum=None, strict=False):
    number = _bounded(float, minimum, strict=strict)

    def parse(raw):
        parts = [s.strip() for s in raw.split(",") if s.strip()]
        if not parts:
            raise ValueError("expected a comma-separated list")
        return tuple(map(number, parts))
    parse.listed = True  # _check_values renders a sequence for it as a list
    return parse


def _format_value(value, listed=False):
    """The config text of ``value``: floats by repr, so they survive the
    round trip exactly.  A sequence becomes a comma-separated list only if
    ``listed`` (for a list-valued key); otherwise it keeps its str(), which
    no scalar parser accepts, so [1.0] is not taken for 1.0."""
    if type(value) is float:  # the common case
        return repr(value)
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        # float() drops subclasses such as np.float64, whose repr is not config text.
        return repr(float(value))
    if listed:
        try:
            return ", ".join(map(_format_value, value))
        except TypeError:
            pass
    return str(value)


def _check_values(section, parsers, values):
    """Each of ``values`` parsed from its rendered text by the parser of its
    key (as a list for a list parser); a bad one raises ConfigError
    starting ``[section] key:``."""
    parsed = {}
    for key, value in values.items():
        parser = parsers[key]
        try:
            parsed[key] = parser(_format_value(value, getattr(parser, "listed", False)))
        except ValueError as exc:
            raise ConfigError(f"[{section}] {key}: {exc}") from None
    return parsed


def _check_fields(obj, section, parsers, keys=None):
    """Parse each set (not None) field of a frozen dataclass that has a
    parser back from its rendered text, as a config file holding it would.
    ``keys`` maps a field to its key where the two names differ.  None is a
    ConfigError in a field whose default is not None."""
    values, names = {}, {}
    for f in fields(obj):
        key = keys.get(f.name, f.name) if keys else f.name
        if key not in parsers:
            continue
        value = getattr(obj, f.name)
        if value is not None:
            values[key], names[key] = value, f.name
        elif f.default is not None:
            raise ConfigError(f"[{section}] {key}: expected a value, got None")
    for key, value in _check_values(section, parsers, values).items():
        object.__setattr__(obj, names[key], value)

"""Declared plugin parameters: :class:`FieldSpec` and :class:`RegistryError`.

A leaf module, so a plugin module can declare its parameters at import
without importing :mod:`repro.registry`, whose import registers (and so
imports) every built-in plugin.  :mod:`repro.registry` re-exports both
names.
"""

from __future__ import annotations

from dataclasses import dataclass


class RegistryError(ValueError):
    """Invalid plugin name or parameter value.

    ``suggestion`` holds the closest name match (or "") for unknown-name
    errors; parameter errors carry the full field path in the message
    (e.g. ``workload_params.zipf_alpha: expected float, got str``).
    """

    def __init__(self, message: str, *, suggestion: str = "") -> None:
        super().__init__(message)
        self.suggestion = suggestion


#: Accepted runtime types per declared FieldSpec type name.  ``float``
#: accepts ints (JSON has one number type); ``bool`` is never accepted
#: where ``int`` is declared (Python's bool-is-int would let ``true``
#: sneak into counters).
_PARAM_TYPES: dict[str, tuple[type, ...]] = {
    "int": (int,),
    "float": (int, float),
    "str": (str,),
    "bool": (bool,),
}


@dataclass(frozen=True)
class FieldSpec:
    """One declared plugin parameter: its type, range, and enum.

    Attributes
    ----------
    name:
        Parameter keyword (the key in a params dict).
    type:
        ``"int"``, ``"float"``, ``"str"``, or ``"bool"``.  ``float``
        accepts JSON integers too; ``int`` rejects booleans.
    default:
        Documented default (informational; factories own real defaults).
    minimum / maximum:
        Inclusive numeric bounds, when the type is numeric.
    choices:
        Allowed values, when the parameter is an enum.
    doc:
        One-line human description.
    """

    name: str
    type: str = "str"
    default: object = None
    minimum: float | None = None
    maximum: float | None = None
    choices: tuple = ()
    doc: str = ""

    def __post_init__(self) -> None:
        if self.type not in _PARAM_TYPES:
            raise ValueError(
                f"FieldSpec type must be one of {tuple(_PARAM_TYPES)}, "
                f"got {self.type!r}"
            )

    def check(self, value: object, path: str) -> None:
        """Raise :class:`RegistryError` unless ``value`` satisfies the spec.

        ``path`` prefixes the message (``workload_params.zipf_alpha``) so
        every surface that funnels here reports the same field path.
        """
        expected = _PARAM_TYPES[self.type]
        ok = isinstance(value, expected) and not (
            isinstance(value, bool) and self.type != "bool"
        )
        if not ok:
            raise RegistryError(
                f"{path}: expected {self.type}, "
                f"got {type(value).__name__} ({value!r})"
            )
        if self.choices and value not in self.choices:
            raise RegistryError(
                f"{path}: must be one of "
                f"{', '.join(repr(c) for c in self.choices)}, got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:  # type: ignore[operator]
            raise RegistryError(
                f"{path}: must be >= {self.minimum}, got {value!r}"
            )
        if self.maximum is not None and value > self.maximum:  # type: ignore[operator]
            raise RegistryError(
                f"{path}: must be <= {self.maximum}, got {value!r}"
            )

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly form for ``describe()`` and the plugins CLI."""
        out: dict[str, object] = {"name": self.name, "type": self.type}
        if self.default is not None:
            out["default"] = self.default
        if self.minimum is not None:
            out["minimum"] = self.minimum
        if self.maximum is not None:
            out["maximum"] = self.maximum
        if self.choices:
            out["choices"] = list(self.choices)
        if self.doc:
            out["doc"] = self.doc
        return out

"""Every numeric config key carries a bound in its type hint.

`pillarseg.flat.read_value` checks a value against the bound that its field's
hint names, `Annotated[T, "<bound>"]`, so a numeric key declared without one
takes any finite value. This reads the hints of the dataclasses that config
and scene files fill, and fails on an `int` or `float` field, or tuple entry,
that has no bound or names one that the reader does not know.
"""

import types
from typing import Annotated, Union, get_args, get_origin, get_type_hints

from pillarseg.augment import AugmentConfig
from pillarseg.config import RunConfig
from pillarseg.dataio import SceneSpec
from pillarseg.flat import _BOUNDS
from pillarseg.pillars import GridConfig

# field -> why it takes any finite value
UNBOUNDED = {
    "GridConfig.x_range": "a coordinate range; its order is checked across its two entries",
    "GridConfig.y_range": "a coordinate range; its order is checked across its two entries",
    "GridConfig.z_range": "a coordinate range; its order is checked across its two entries",
    "SceneSpec.ground": "a coordinate extent; its order and the fit of the boxes and posts "
                        "are checked across fields",
}


def token_hints(hint) -> list:
    """The hint of each token of a field: ``X | None`` as ``X``, one per
    tuple entry."""
    if get_origin(hint) in (Union, types.UnionType):
        (hint,) = (arg for arg in get_args(hint) if arg is not type(None))
    if get_origin(hint) is tuple:
        return [arg for arg in get_args(hint) if arg is not Ellipsis]
    return [hint]


def numeric_fields() -> dict[str, list]:
    """Qualified field name -> the hints of its numeric tokens."""
    out = {}
    for cls in (RunConfig, GridConfig, AugmentConfig, SceneSpec):
        for name, hint in get_type_hints(cls, include_extras=True).items():
            items = [item for item in token_hints(hint)
                     if (get_args(item)[0] if get_origin(item) is Annotated else item)
                     in (int, float)]
            if items:
                out[f"{cls.__name__}.{name}"] = items
    return out


def test_every_numeric_key_has_a_bound():
    fields = numeric_fields()
    unbounded = {name for name, items in fields.items()
                 if any(get_origin(item) is not Annotated for item in items)}
    assert sorted(unbounded - set(UNBOUNDED)) == [], "numeric key with no bound in its hint"
    # an entry that now has a bound, or is gone, leaves the list
    assert sorted(set(UNBOUNDED) - unbounded) == [], "listed but bounded or not defined"
    unknown = {name: get_args(item)[1] for name, items in fields.items() for item in items
               if get_origin(item) is Annotated and get_args(item)[1] not in _BOUNDS}
    assert unknown == {}, "bound that the reader does not know"

import json
from pathlib import Path

import pytest

from thinlayer import config
from thinlayer.config import SCHEMA, _violations

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted([*ROOT.glob("configs/*.json"), *ROOT.glob("perfbench/configs/*.json")])


def _keywords(schema):
    """Every keyword used in schema and its subschemas."""
    found = set(schema)
    subschemas = [schema.get("not"), schema.get("items"), schema.get("additionalProperties")]
    subschemas += schema.get("anyOf", []) + schema.get("prefixItems", [])
    subschemas += list(schema.get("properties", {}).values())
    for sub in subschemas:
        if isinstance(sub, dict):
            found |= _keywords(sub)
    return found


def test_validator_implements_every_keyword_of_the_schema():
    used = _keywords(SCHEMA)
    assert {"type", "properties", "anyOf", "not", "prefixItems"} <= used  # the walk descends
    assert used <= config.KEYWORDS


def _base():
    return json.loads((ROOT / "configs" / "circle_converge.json").read_text())


def _mutated(edit):
    raw = _base()
    edit(raw)
    return raw


# one invalid config per keyword; every one is rejected
MUTATIONS = {
    "type": lambda c: c["geometry"].update(grid="64"),
    "enum": lambda c: c["geometry"].update(family="moebius"),
    "const": lambda c: c.update(schema=2),
    "required": lambda c: c.pop("geometry"),
    "additionalProperties": lambda c: c.update(mystery=1),
    "minItems": lambda c: c["geometry"].update(grid=[]),
    "maxItems": lambda c: c["geometry"].update(grid=[64, 64, 64]),
    "uniqueItems": lambda c: c["sweep"].update(epsilons=[0.2, 0.1, 0.2]),
    "not-multipleOf": lambda c: c["sweep"].update(m_u=8),
    "minimum": lambda c: c["sweep"].update(m_u=1),
    "exclusiveMinimum": lambda c: c.update(spectrum={"epsilon": 0}),
    "anyOf": lambda c: c["field"].update(kind="constant", b="e_z"),
    "prefixItems": lambda c: c["field"].update(
        kind="linear-gauge", components=[[["x", [1, 0]]], [[1.0, [0, 1]]]]
    ),
    "items": lambda c: c["geometry"].update(grid=[64.5]),
}


def _paths(raw):
    return [where for where, _ in sorted(_violations(raw, SCHEMA), key=lambda e: e[0])]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_each_keyword_rejects_its_mutation(name):
    assert _paths(_mutated(MUTATIONS[name]))


@pytest.mark.parametrize(
    "raw",
    [json.loads(p.read_text()) for p in CONFIGS] + [_mutated(m) for m in MUTATIONS.values()],
    ids=[p.name for p in CONFIGS] + list(MUTATIONS),
)
def test_verdict_and_first_error_path_match_jsonschema(raw):
    jsonschema = pytest.importorskip("jsonschema")
    errors = sorted(
        jsonschema.Draft202012Validator(SCHEMA).iter_errors(raw),
        key=lambda e: list(e.absolute_path),
    )
    ours = _paths(raw)
    assert bool(ours) == bool(errors)
    if errors:
        assert ours[0] == tuple(errors[0].absolute_path)


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c["solver"].update(seed=3.0),
        lambda c: c["sweep"].update(m_u=9.0),
        lambda c: c["geometry"].update(grid=[64.0]),
    ],
    ids=["seed", "m_u", "grid"],
)
def test_integral_floats_are_not_integers(edit):
    # the one intended difference from Draft 2020-12, which takes 3.0 as an
    # integer: here an integer is an integer literal
    raw = _mutated(edit)
    messages = [msg for _, msg in _violations(raw, SCHEMA)]
    assert messages and all(msg.endswith("is not of type 'integer'") for msg in messages)
    jsonschema = pytest.importorskip("jsonschema")
    assert jsonschema.Draft202012Validator(SCHEMA).is_valid(raw)


def test_error_message_lists_sorted_paths(tmp_path):
    raw = _mutated(lambda c: (c.update(mystery=1, schema=2), c["sweep"].update(m_u=8)))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(config.ConfigError) as info:
        config.load_config(path)
    message = str(info.value)
    assert message.startswith(f"{path}: config violates schema: /: Additional properties")
    assert message.index("/schema:") < message.index("/sweep/m_u:")
    assert "'mystery' was unexpected" in message

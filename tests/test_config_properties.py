"""Every raw config and every parsed command line either yields a
RunConfig or raises ConfigError (exit 2); nothing else escapes."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from sasaklab import tolerances
from sasaklab.cli import COMMANDS, _parser, _resolve_config
from sasaklab.config import RunConfig, build_config
from sasaklab.errors import ConfigError
from sasaklab.gallery import PRESET_NAMES

# JSON can carry integers far beyond the float range, and NaN/Infinity
numbers = st.one_of(st.integers(-20, 20), st.integers(-10**400, 10**400), st.floats())
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)
vectors = st.lists(numbers, max_size=5)
fields = {name: st.one_of(numbers, json_values) for name in (
    "n", "samples", "seed", "flow_steps", "directions", "workers", "preset", "description")}
fields.update({name: st.one_of(vectors, json_values) for name in ("sphere_weights", "mu", "lam")})
fields["action_weights"] = st.one_of(st.lists(vectors, max_size=3), json_values)
fields["tolerances"] = st.one_of(
    st.dictionaries(st.sampled_from([*tolerances.DEFAULTS, "nope"]),
                    st.one_of(numbers, json_values), max_size=3),
    json_values)
raw_configs = st.one_of(
    st.fixed_dictionaries({}, optional=fields),
    st.dictionaries(st.text(max_size=8), json_values, max_size=4),
)
commands = st.sampled_from([None, *COMMANDS])


def _config_is_valid_or_rejected(resolve):
    try:
        cfg = resolve()
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


@given(raw=raw_configs, command=commands)
@settings(max_examples=150, deadline=None)
def test_build_config_accepts_or_rejects(raw, command):
    _config_is_valid_or_rejected(lambda: build_config(raw, command=command))


numeric_text = st.text(alphabet="0123456789,.-+eEinfa x", max_size=10)
options = st.lists(st.one_of(
    st.tuples(st.just("--preset"), st.sampled_from(PRESET_NAMES)),
    st.tuples(st.sampled_from(["--mu", "--lam"]), numeric_text),
    st.tuples(st.sampled_from(["--n", "--samples", "--seed", "--flow-steps",
                               "--directions"]),
              st.one_of(st.integers(-5, 2000), st.integers()).map(str)),
    st.tuples(st.just("--config"), st.sampled_from(["file", "missing"])),
), max_size=5)


@given(command=st.sampled_from(COMMANDS), opts=options, raw=raw_configs)
@settings(max_examples=150, deadline=None)
def test_resolve_config_accepts_or_rejects(tmp_path_factory, command, opts, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz-config.json"
    path.write_text(json.dumps(raw))
    paths = {"file": str(path), "missing": str(path) + ".missing"}
    # --flag=value, so values that start with "-" stay values
    argv = [command, *(f"{flag}={paths[v] if flag == '--config' else v}" for flag, v in opts)]
    _config_is_valid_or_rejected(lambda: _resolve_config(_parser().parse_args(argv)))

import ast
import inspect
import re

import pytest

from lcsae.config import (ConfigError, ExperimentConfig, _typed, config_from_dict,
                          config_to_dict, derived_rng, load_config, parse_config,
                          validate)


def test_defaults_match_reference_parameters():
    cfg = ExperimentConfig()
    assert cfg.N == 500
    assert cfg.P_init is True
    assert cfg.epsilon0 == 0.01
    assert cfg.beta == 0.1
    assert cfg.alpha == 1.0
    assert cfg.nu == 10.0
    assert cfg.delta == 0.1
    assert cfg.theta_del == 20
    assert cfg.F_I == 0.01
    assert cfg.epsilon_I == 0.0
    assert cfg.F_R == 0.1
    assert cfg.epsilon_R == 1.0
    assert cfg.theta_EA == 50
    assert cfg.lam == 2
    assert cfg.mu_min == 1e-4
    assert cfg.omega == 0.9
    assert cfg.h_I == 1
    assert cfg.h_M == 5
    assert cfg.h_max is None
    assert cfg.stale_limit == 10000
    assert cfg.match_threshold == 0.5


def test_parse_overrides_and_comments():
    cfg = parse_config("""
# comment line
N = 40
beta=0.2
lambda=4
mode=global_ea
h_max=12
connection_mutation=true
image_shape=16,16
dataset=foo.csv
""")
    assert cfg.N == 40
    assert cfg.beta == 0.2
    assert cfg.lam == 4
    assert cfg.global_ea
    assert cfg.h_max == 12
    assert cfg.connection_mutation is True
    assert cfg.image_shape == (16, 16, 1)
    assert cfg.dataset == "foo.csv"


def test_load_config_skips_a_utf8_byte_order_mark(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"\xef\xbb\xbfN=40\nbeta=0.2\n")
    cfg = load_config(path)
    assert cfg.N == 40 and cfg.beta == 0.2


def test_config_dict_round_trip():
    cfg = parse_config("N=12\nlambda=2\nimage_shape=8,8,3\nseed=99\n")
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_config_dict_takes_an_int_for_a_float_and_a_shape_of_three():
    cfg = config_from_dict({"beta": 1, "h_max": None, "image_shape": [8, 8, 1]})
    assert type(cfg.beta) is float and cfg.beta == 1.0
    assert cfg.image_shape == (8, 8, 1)


def test_every_default_field_parses_back_from_its_file_form():
    text = "".join(f"{key}={value}\n" for key, value in config_to_dict(ExperimentConfig()).items())
    assert parse_config(text) == ExperimentConfig()


def test_derived_rng_streams_are_independent_and_stable():
    a1 = derived_rng(7, 0).random(4)
    a2 = derived_rng(7, 0).random(4)
    b = derived_rng(7, 1).random(4)
    assert (a1 == a2).all()
    assert not (a1 == b).all()


# the smallest float above 1 and the largest below 0
ABOVE_1, BELOW_0 = "1.0000000000000002", "-5e-324"
INT_KEYS = ("N", "theta_del", "theta_EA", "lambda", "h_I", "h_M", "h_max", "stale_limit",
            "seed", "trials", "checkpoint_interval")
ACCEPTED = None
UNDERFLOW = ("alpha * (max(1, epsilon_I) / epsilon0) ** -nu underflows to 0; "
             "lower nu or raise epsilon0")


def _typed_rows(key, annotation, *values):
    # a checkpoint header is JSON, so any value can arrive in any key
    return [({key: v}, f"{key} {v!r} is not of type {annotation}", f"{key}:{v!r}")
            for v in values]


def _bounds(key, message, refused, accepted=()):
    """Rows of ``key=value``: each refused value with ``message``, and each
    accepted value."""
    return ([(f"{key}={v}", message) for v in refused]
            + [(f"{key}={v}", ACCEPTED) for v in accepted])


# Every check of parse_config, config_from_dict and validate, as rows of
# (a config file's text or a dict for config_from_dict, the ConfigError
# message or ACCEPTED, and an id if the row needs one): one row just past
# each bound, and one exactly on each closed bound.  The id of a text row
# is its text, with ";" for a line break.
CONFIG_ROWS = [
    # the file's lines
    ("just words", "line 1: expected key=value, got 'just words'"),
    ("frobnicate=1", "line 1: unknown key 'frobnicate'"),
    ("N=10\nN=20", "line 2: duplicate key 'N'"),
    ("N=lots", "line 1: bad value for 'N': invalid literal for int() with base 10: 'lots'"),
    ("beta=x", "line 1: bad value for 'beta': could not convert string to float: 'x'"),
    ("P_init=maybe", "line 1: bad value for 'P_init': not a boolean: 'maybe'"),
    ("h_max=x", "line 1: bad value for 'h_max': invalid literal for int() with base 10: 'x'"),
    *((f"image_shape={v}", "line 1: bad value for 'image_shape': "
       f"image_shape must be H,W or H,W,C: '{v}'") for v in ("8", "1,2,3,4")),
    # a dict's keys and the types of its values
    ({"frobnicate": 1}, "unknown config key 'frobnicate'", "dict:frobnicate"),
    *_typed_rows("seed", "int", 1.5), *_typed_rows("N", "int", True),
    *_typed_rows("checkpoint_interval", "int", 2.5), *_typed_rows("P_init", "bool", "yes", 1),
    *_typed_rows("beta", "float", "0.1", False), *_typed_rows("h_max", "int | None", 2.0),
    ({"beta": 10**400}, f"beta {10**400} is not of type float", "beta:10**400"),
    *_typed_rows("mode", "str", 3),
    *_typed_rows("image_shape", "tuple | None", "8,8,1", [8, 8.0, 1], [8, True, 1]),
    ({"image_shape": []}, "image_shape must have three dimensions", "dict:image_shape:[]"),
    ({"image_shape": [8, 8]}, "image_shape must have three dimensions",
     "dict:image_shape:[8,8]"),
    # every integer must fit an int64
    *(row for key in INT_KEYS
      for row in _bounds(key, f"{key} must be below 2**63", [2**63], [2**63 - 1])),
    *_bounds("h_I", "h_I must be below 2**63", [99999999999999999999]),
    *_bounds("seed", "seed must be below 2**63", [2**64]),
    # the learning parameters
    *_bounds("N", "N must be >= 1", [0], [1]),
    *_bounds("epsilon0", "epsilon0 must be finite and > 0", ["0", "-0.01\nnu=2.5", "nan", "inf"]),
    *_bounds("beta", "beta must be in (0, 1]", ["0", ABOVE_1], ["1"]),
    *_bounds("alpha", "alpha must be in (0, 1]", ["0", ABOVE_1], ["1"]),
    *_bounds("nu", "nu must be finite and > 0", ["0", "nan", "inf"]),
    *_bounds("delta", "delta must be in (0, 1)", ["0", "1"]),
    *_bounds("theta_del", "theta_del must be >= 0", [-1], [0]),
    *_bounds("F_I", "F_I must be in (0, 1]", ["0", ABOVE_1], ["1"]),
    *_bounds("epsilon_I", "epsilon_I must be finite and >= 0", [BELOW_0, "inf"], ["0"]),
    # 100 ** -150 = 1e-300 is still a positive accuracy, 100 ** -200 is 0;
    # alpha scales it, and an epsilon0 above every reachable error never
    # takes the power
    *_bounds("nu", UNDERFLOW, ["200", "160\nalpha=1e-20", "1e308"], ["150"]),
    *_bounds("epsilon_I", UNDERFLOW, ["1e308"]),
    ("epsilon0=2\nnu=1e308", ACCEPTED),
    *_bounds("F_R", "F_R must be in (0, 1]", ["0", ABOVE_1], ["1"]),
    *_bounds("epsilon_R", "epsilon_R must be in (0, 1]", ["0", ABOVE_1], ["1"]),
    *_bounds("theta_EA", "theta_EA must be >= 0", [-1], [0]),
    *_bounds("lambda", "lambda must be >= 1", [0], [1]),
    *_bounds("mu_min", "mu_min must be in (0, 1]", ["0", ABOVE_1], ["1"]),
    *_bounds("omega", "omega must be in [0, 1]", [BELOW_0, ABOVE_1], ["0", "1"]),
    *_bounds("h_I", "h_I must be >= 1", [0], [1]),
    *_bounds("h_M", "h_M must be >= 1", [0], [1]),
    *_bounds("h_I=3\nh_max", "h_max must be >= h_I (or unset)", [2], [3]),
    # the run and the data
    *_bounds("mode", "mode must be 'xcsf' or 'global_ea'", ["banana"]),
    *_bounds("stale_limit", "stale_limit must be >= 1", [0], [1]),
    *_bounds("match_threshold", "match_threshold must be in [0, 1)", [BELOW_0, "1"], ["0"]),
    *_bounds("seed", "seed must be >= 0", [-1], [0]),
    *_bounds("trials", "trials must be >= 0", [-1], [0]),
    *_bounds("checkpoint_interval", "checkpoint_interval must be >= 1", [0], [1]),
    *_bounds("split_ratio", "split_ratio must be in (0, 1]", ["0", ABOVE_1], ["1"]),
    *_bounds("image_shape", "image_shape dimensions must be >= 1", ["-4,-4", "4,4,0"],
             ["1,1"]),
    *_bounds("image_shape", "image_shape dimensions must be below 2**63", [f"1,{2**63}"],
             [f"1,{2**63 - 1}"]),
]


def _row_id(row):
    return row[2] if len(row) > 2 else row[0].replace("\n", ";")


@pytest.mark.parametrize("row", range(len(CONFIG_ROWS)), ids=map(_row_id, CONFIG_ROWS))
def test_config_table(row):
    given, message = CONFIG_ROWS[row][:2]
    parse = parse_config if isinstance(given, str) else config_from_dict
    if message is ACCEPTED:
        parse(given)
        return
    with pytest.raises(ConfigError) as refused:
        parse(given)
    assert str(refused.value) == message


def _message_patterns(function):
    """A regular expression for the message of every ConfigError that
    ``function`` of the config module raises, directly or through
    ``require``: an f-string's formatted fields match anything."""
    for call in ast.walk(ast.parse(inspect.getsource(function))):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) \
                and call.func.id in ("ConfigError", "require"):
            msg = call.args[-1]
            if isinstance(msg, ast.JoinedStr):
                yield "".join(re.escape(p.value) if isinstance(p, ast.Constant) else ".*"
                              for p in msg.values)
            elif isinstance(msg, ast.Constant):
                yield re.escape(msg.value)


def test_every_config_check_has_a_refused_row():
    refused = [row[1] for row in CONFIG_ROWS if row[1] is not ACCEPTED]
    for function in (parse_config, config_from_dict, _typed, validate):
        patterns = list(_message_patterns(function))
        assert patterns, function.__name__
        missing = [p for p in patterns if not any(re.fullmatch(p, m) for m in refused)]
        assert not missing, function.__name__

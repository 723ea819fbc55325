import pytest

from lcsae.config import (ConfigError, ExperimentConfig, config_from_dict,
                          config_to_dict, derived_rng, load_config, parse_config)


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


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("frobnicate=1\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("N=10\nN=20\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config("just words\n")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("N=lots\n")
    with pytest.raises(ConfigError, match="mode"):
        parse_config("mode=banana\n")
    with pytest.raises(ConfigError, match="beta"):
        parse_config("beta=0\n")
    with pytest.raises(ConfigError, match="h_max"):
        parse_config("h_I=3\nh_max=2\n")


def test_accuracy_of_the_largest_error_must_not_underflow():
    # 100 ** -150 = 1e-300 is still a positive accuracy, 100 ** -200 is 0
    parse_config("nu=150\n")
    with pytest.raises(ConfigError, match="underflows to 0"):
        parse_config("nu=200\n")
    # alpha scales the accuracy, so it can push it to 0 too
    with pytest.raises(ConfigError, match="underflows to 0"):
        parse_config("nu=160\nalpha=1e-20\n")
    # an epsilon0 above every reachable error never takes the power
    parse_config("epsilon0=2\nnu=1e308\n")


@pytest.mark.parametrize("key", ["N", "theta_del", "theta_EA", "lambda", "h_I", "h_M",
                                 "h_max", "stale_limit", "seed", "trials",
                                 "checkpoint_interval"])
def test_every_integer_key_must_fit_an_int64(key):
    # the largest int64 is legal for every key (up to what memory holds)
    parse_config(f"{key}={2**63 - 1}\n")
    for value in (2**63, 99999999999999999999):
        with pytest.raises(ConfigError, match=f"{key} must be below 2\\*\\*63"):
            parse_config(f"{key}={value}\n")
    parse_config(f"image_shape=1,{2**63 - 1}\n")
    with pytest.raises(ConfigError, match="image_shape dimensions must be below"):
        parse_config(f"image_shape=1,{2**63}\n")


def test_config_dict_round_trip():
    cfg = parse_config("N=12\nlambda=2\nimage_shape=8,8,3\nseed=99\n")
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


@pytest.mark.parametrize("key, value", [
    ("seed", 1.5), ("N", True), ("checkpoint_interval", 2.5), ("P_init", "yes"),
    ("P_init", 1), ("beta", "0.1"), ("beta", False),
    pytest.param("beta", 10**400, id="beta-10**400"), ("h_max", 2.0),
    ("mode", 3), ("image_shape", "8,8,1"), ("image_shape", [8, 8.0, 1]),
    ("image_shape", [8, True, 1])])
def test_config_dict_values_of_another_type_are_config_errors(key, value):
    # a checkpoint header is JSON, so any value can arrive in any key
    with pytest.raises(ConfigError, match=f"{key} .* is not of type"):
        config_from_dict({key: value})


def test_config_dict_takes_an_int_for_a_float_and_a_shape_of_three():
    cfg = config_from_dict({"beta": 1, "h_max": None, "image_shape": [8, 8, 1]})
    assert type(cfg.beta) is float and cfg.beta == 1.0
    assert cfg.image_shape == (8, 8, 1)
    for shape in ([], [8, 8]):
        with pytest.raises(ConfigError, match="image_shape must have three dimensions"):
            config_from_dict({"image_shape": shape})


def test_every_default_field_parses_back_from_its_file_form():
    text = "".join(f"{key}={value}\n" for key, value in config_to_dict(ExperimentConfig()).items())
    assert parse_config(text) == ExperimentConfig()


def test_derived_rng_streams_are_independent_and_stable():
    a1 = derived_rng(7, 0).random(4)
    a2 = derived_rng(7, 0).random(4)
    b = derived_rng(7, 1).random(4)
    assert (a1 == a2).all()
    assert not (a1 == b).all()

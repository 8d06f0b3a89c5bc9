import dataclasses
import json
import re

import numpy as np
import pytest

import bitmimo as bm
from bitmimo.combiner import config_hash
from bitmimo.dictionary import build_dictionary
from bitmimo.cli import main
from bitmimo.harness import ExperimentSpec
from bitmimo.model import checked, config_from_dict, config_to_dict
from bitmimo.recovery import RecoverySpec
from layouts import make_random_array_config, make_ula_config


def scene_from_sparse_vector(a, config):
    """Inverse of scene_to_sparse_vector for vectors with distinct support."""
    a = np.asarray(a)
    if a.shape != (config.grid_size,):
        raise ValueError("vector length does not match the configured grid")
    cells = np.flatnonzero(a)
    return bm.TargetScene(cells=cells, alpha=a[cells])


def test_ula_config_paper_scale():
    cfg = make_ula_config(8, 12, 1e6, 9e-6)
    assert cfg.L == 9
    assert cfg.mnl == 864
    assert cfg.grid_size == 6912


def test_ula_degenerate_single_element():
    cfg = make_ula_config(1, 1, 1e6, 1e-6)
    assert cfg.rx_pos[0] == 0 and cfg.tx_pos[0] == 0
    assert cfg.L == 1


def test_ula_positions_m2_n3():
    cfg = make_ula_config(2, 3, 1e6, 3e-6)
    assert np.allclose(cfg.tx_pos, [0.0, 1.5])
    assert np.allclose(cfg.rx_pos, [0.0, 0.5, 1.0])


def test_ula_virtual_positions_distinct():
    cfg = make_ula_config(3, 4, 1e6, 3e-6)
    virt = (cfg.tx_pos[:, None] + cfg.rx_pos[None, :]).ravel()
    assert len(np.unique(virt)) == cfg.mn


def test_reject_even_L():
    with pytest.raises(ValueError):
        make_ula_config(2, 2, 1e6, 4e-6)  # B_h*T_0 = 4, even


def test_tone_count_is_derived():
    # L is no init field: bandwidth*pri sets it, and neither it nor a carrier
    # is a config key
    cfg = make_ula_config(2, 3, 1e6, 3e-6)
    assert cfg.L == 3
    assert dataclasses.replace(cfg, pri=5e-6).L == 5
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(cfg, L=5)
    assert not {"L", "carrier"} & set(config_to_dict(cfg))
    for bandwidth, pri in ((1e308, 10.0), (1e6, 4e-6), (1e6, 3.1e-6)):
        with pytest.raises(ValueError, match="bandwidth\\*pri"):
            make_ula_config(2, 2, bandwidth, pri)


def test_reject_nonpositive():
    with pytest.raises(ValueError):
        make_ula_config(0, 2, 1e6, 3e-6)
    with pytest.raises(ValueError):
        make_ula_config(2, 2, -1e6, 3e-6)
    with pytest.raises(ValueError):
        make_ula_config(2, 2, 1e6, 3e-6, eta=0.0)
    # NaN fails every comparison, so it must not slip past a `x <= 0` check
    for field in ("eta", "sigma_alpha_sq", "sigma_n_sq"):
        with pytest.raises(ValueError, match=field):
            make_ula_config(2, 2, 1e6, 3e-6, **{field: float("nan")})


def test_config_fields_convert_and_check_once():
    # RadarConfig converts and checks each init field by its annotated kind;
    # the generators pass their scalars on, so its defaults are theirs
    cfg = bm.RadarConfig(M=np.int64(1), N=2, bandwidth=1000000, pri=3e-6,
                         rx_pos=[0, 1], tx_pos=[0], tone_offsets=[0])
    assert type(cfg.M) is int and type(cfg.bandwidth) is float
    assert cfg.rx_pos.dtype == float and not cfg.rx_pos.flags.writeable
    assert type(dataclasses.replace(cfg, sigma_n_sq=np.float32(0.5)).sigma_n_sq) is float
    assert dataclasses.replace(cfg, sigma_n_sq=0).sigma_n_sq == 0.0
    defaults = {f.name: f.default for f in dataclasses.fields(bm.RadarConfig)
                if f.default is not dataclasses.MISSING}
    assert set(defaults) == {"eta", "sigma_alpha_sq", "sigma_n_sq"}
    for made in (make_ula_config(2, 3, 1e6, 3e-6),
                 make_random_array_config(np.random.default_rng(0), 2, 3, 1e6, 3e-6)):
        assert {key: getattr(made, key) for key in defaults} == defaults
    for change, message in (
            ({"M": True}, "M must be an integer, got True"),
            ({"N": 2.0}, "N must be an integer, got 2.0"),
            ({"rx_pos": [[0.0, 1.0]]}, "rx_pos must be a list of numbers"),
            ({"tone_offsets": [np.nan]}, "tone_offsets must be a list of finite numbers"),
            ({"tx_pos": [10 ** 400]}, "tx_pos must be a number a float can hold"),
            ({"bandwidth": 10 ** 400}, "bandwidth must be a number a float can hold"),
            ({"eta": None}, "eta must be a number, got None"),
            ({"pri": -np.inf}, "pri must be positive and finite"),
            ({"sigma_alpha_sq": 0.0}, "sigma_alpha_sq must be positive and finite"),
            ({"sigma_n_sq": -1.0}, "sigma_n_sq must be nonnegative and finite")):
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(cfg, **change)



# what a user might set where a number goes; "float" (the SNR axis, whose range
# at_snr owns) refuses only the first four, and rho may be None
NOT_A_NUMBER = {"bool": True, "np.bool_": np.True_, "str": "1", "None": None,
                "nan": float("nan"), "inf": float("inf"), "-inf": -float("inf")}
EXPLICIT = {"M": 2, "N": 3, "bandwidth": 1e6, "pri": 3e-6, "rx_pos": [0.0, 0.5, 1.0],
            "tx_pos": [0.0, 1.5], "tone_offsets": [-5e5, 5e5]}
AXES = {"budget_bits": [36], "snr_db": [10.0], "dcr": [2], "k": [2]}


def _with(d, field, bad):
    """d with bad in field; a list field gets it as its last entry."""
    value = d[field][:-1] + [bad] if isinstance(d.get(field), list) else bad
    return dict(d, **{field: value})


def _build(entry, field, bad):
    if entry == "RadarConfig":
        return bm.RadarConfig(**_with(EXPLICIT, field, bad))
    if entry == "config_from_dict":
        return config_from_dict(_with(EXPLICIT, field, bad))
    if entry == "RecoverySpec":
        return RecoverySpec(**{field: bad})
    return ExperimentSpec(config=bm.RadarConfig(**EXPLICIT), **_with(AXES, field, bad))


@pytest.mark.parametrize("entry, field", [
    *(("RadarConfig", field) for field in EXPLICIT),
    *(("RadarConfig", field) for field in ("eta", "sigma_alpha_sq", "sigma_n_sq")),
    *(("config_from_dict", field) for field in EXPLICIT),
    *(("config_from_dict", field) for field in ("eta", "sigma_alpha_sq", "sigma_n_sq")),
    *(("ExperimentSpec", field) for field in ("trials", "master_seed", *AXES)),
    *(("RecoverySpec", field) for field in ("rho", "rho_scale", "max_iter", "tol")),
])
def test_every_entry_point_refuses_what_is_not_a_number(entry, field):
    # every number a user sets goes through model.checked: a ValueError that
    # names the field, for each value its rule refuses
    named = f"config key {field!r}" if entry == "config_from_dict" else field
    accepted = {("ExperimentSpec", "snr_db"): ("nan", "inf", "-inf"),
                ("RecoverySpec", "rho"): ("None",)}.get((entry, field), ())
    for what, bad in NOT_A_NUMBER.items():
        if what in accepted:
            continue
        with pytest.raises(ValueError, match=f"^{re.escape(named)} must be "):
            _build(entry, field, bad)
            pytest.fail(f"{entry} took {field}={what}")


@pytest.mark.parametrize("seed", ["-1", "nan", "inf", "True", "1.5", "None"])
def test_cli_seed_is_refused_by_name(tmp_path, capsys, seed):
    # --seed as argparse reads it (an int), then through model.checked
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(EXPLICIT))
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(path), "--seed", seed, "--out",
              str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_checked_rules():
    # each rule on a value it takes and converts, and at its bound
    assert checked("x", np.int64(3), "int>=1") == 3 and checked("x", 0, "int>=0") == 0
    assert checked("x", -(10 ** 400), "int") == -(10 ** 400)
    assert type(checked("x", np.float32(0.5), "float>0")) is float
    assert checked("x", 0, "float>=0") == 0.0 and np.isnan(checked("x", np.nan, "float"))
    out = checked("x", (0, np.float32(0.5)), "floats")
    assert out.dtype == float and out.tolist() == [0.0, 0.5] and not out.flags.writeable
    for value, rule, message in (
            (0, "int>=1", "x must be >= 1, got 0"),
            (-1, "int>=0", "x must be nonnegative, got -1"),
            (np.float64(2.0), "int", "x must be an integer, got "),
            (0.0, "float>0", "x must be positive and finite, got 0.0"),
            (-0.5, "float>=0", "x must be nonnegative and finite, got -0.5"),
            (10 ** 400, "float", "x must be a number a float can hold"),
            ([0, 10 ** 400], "floats", "x must be a number a float can hold"),
            ("01", "floats", "x must be a list of numbers, got '01'"),
            (np.zeros((1, 2)), "floats", "x must be a list of numbers"),
            (np.array([np.False_]), "floats", "x must be a list of numbers"),
            ([0.0, np.inf], "floats", "x must be a list of finite numbers, got [0.0, inf]")):
        with pytest.raises(ValueError, match=re.escape(message)):
            checked("x", value, rule)

def test_integer_literal_hashes_like_its_float():
    # "eta": 2 and "eta": 2.0 are one config, on a generated and an explicit
    # layout alike, so they share a config_hash
    for base in ({"M": 2, "N": 3, "array": "ula"},
                 {"M": 1, "N": 2, "rx_pos": [0.0, 0.5], "tx_pos": [0.0],
                  "tone_offsets": [0.0]}):
        ints = config_from_dict(dict(base, bandwidth=1000000, pri=3e-6, eta=2))
        floats = config_from_dict(dict(base, bandwidth=1e6, pri=3e-6, eta=2.0))
        assert config_hash(ints) == config_hash(floats)
    assert list(config_to_dict(floats)) == [
        f.name for f in dataclasses.fields(bm.RadarConfig) if f.init]


def test_random_array_deterministic_and_distinct():
    cfg1 = make_random_array_config(np.random.default_rng(42), 4, 3, 1e6, 3e-6)
    cfg2 = make_random_array_config(np.random.default_rng(42), 4, 3, 1e6, 3e-6)
    assert np.array_equal(cfg1.rx_pos, cfg2.rx_pos)
    assert np.array_equal(cfg1.tone_offsets, cfg2.tone_offsets)
    cfg3 = make_random_array_config(np.random.default_rng(43), 4, 3, 1e6, 3e-6)
    assert not np.array_equal(cfg1.rx_pos, cfg3.rx_pos)


def test_random_array_tone_permutation():
    cfg = make_random_array_config(np.random.default_rng(0), 8, 12, 1e6, 9e-6)
    normalized = cfg.tone_offsets / cfg.bandwidth + (8 + 1) / 2.0
    assert sorted(np.rint(normalized).astype(int).tolist()) == list(range(8))
    # offsets land on the half-integer grid {-4.5 .. +3.5}
    assert set(np.round(cfg.tone_offsets / cfg.bandwidth, 6)) <= {i - 4.5 for i in range(8)}


def test_random_array_positions_in_aperture():
    cfg = make_random_array_config(np.random.default_rng(5), 4, 6, 1e6, 3e-6)
    assert cfg.rx_pos[0] == 0 and cfg.tx_pos[0] == 0
    assert np.all(cfg.rx_pos <= cfg.mn / 2) and np.all(cfg.rx_pos >= 0)
    assert np.all(cfg.tx_pos <= cfg.mn / 2) and np.all(cfg.tx_pos >= 0)


def test_generated_layouts_are_the_config_files():
    # a generator and a config file with 'array' give the same config from
    # equal rng states; the random layout draws rx, then tx, then the
    # permutation, and the ULA is its closed form
    for seed in range(20):
        M, N = 2 + seed % 7, 1 + seed % 5
        keys = {"M": M, "N": N, "bandwidth": 1e6, "pri": 3e-6, "eta": 1.5}
        made = make_random_array_config(np.random.default_rng(seed), **keys)
        read = config_from_dict(dict(keys, array="random"), rng=np.random.default_rng(seed))
        assert config_to_dict(made) == config_to_dict(read)
        rng = np.random.default_rng(seed)
        rx, tx = rng.uniform(0, M * N / 2, N - 1), rng.uniform(0, M * N / 2, M - 1)
        order = rng.permutation(M)
        assert np.array_equal(made.rx_pos, np.r_[0.0, rx])
        assert np.array_equal(made.tx_pos, np.r_[0.0, tx])
        assert np.array_equal(made.tone_offsets, (order - (M + 1) / 2) * 1e6)
        ula = make_ula_config(**keys)
        assert config_to_dict(ula) == config_to_dict(config_from_dict(keys))
        assert np.array_equal(ula.rx_pos, np.arange(N) / 2)
        assert np.array_equal(ula.tx_pos, N * np.arange(M) / 2)
        assert np.array_equal(ula.tone_offsets, (np.arange(M) - (M + 1) / 2) * 1e6)


def test_generators_and_at_snr_refuse_what_a_config_file_refuses():
    # the generators take config_from_dict's checks before any layout
    # arithmetic, a random layout needs the rng that draws it, and at_snr
    # takes the SNR axis's rule
    rng = np.random.default_rng(0)
    cfg = make_ula_config(2, 3, 1e6, 3e-6)
    for build, message in (
            (lambda: make_ula_config(2, 3, "1e6", 3e-6),
             "config key 'bandwidth' must be a number, got '1e6'"),
            (lambda: make_random_array_config(rng, 2, 3.0, 1e6, 3e-6),
             "config key 'N' must be an integer, got 3.0"),
            (lambda: make_random_array_config(rng, 0, 3, 1e6, 3e-6),
             "config key 'M' must be >= 1, got 0"),
            (lambda: config_from_dict({"M": 2, "N": 3, "bandwidth": 1e6, "pri": 3e-6,
                                       "array": "random"}),
             "random array layout requires an rng (seed)"),
            (lambda: cfg.at_snr("10"), "snr_db must be a number, got '10'"),
            (lambda: cfg.at_snr(True), "snr_db must be a number, got True")):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def test_sample_scene_gaussian_counts_and_power():
    cfg = make_ula_config(2, 3, 1e6, 3e-6)
    rng = np.random.default_rng(1)
    draws = [bm.sample_scene(rng, 4, cfg) for _ in range(4000)]
    for sc in draws[:50]:
        assert sc.k == 4
        assert len(set(sc.cells.tolist())) == 4
    power = np.mean([np.abs(sc.alpha) ** 2 for sc in draws])
    assert abs(power - cfg.sigma_alpha_sq) < 0.05


def test_sample_scene_unit_modulus():
    cfg = make_ula_config(2, 3, 1e6, 3e-6, sigma_alpha_sq=4.0)
    scene = bm.sample_scene(np.random.default_rng(2), 5, cfg, "unit_modulus")
    assert np.allclose(np.abs(scene.alpha), 2.0)


def test_sample_scene_edge_cases():
    cfg = make_ula_config(2, 3, 1e6, 3e-6)
    empty = bm.sample_scene(np.random.default_rng(0), 0, cfg)
    assert empty.k == 0
    assert np.count_nonzero(bm.scene_to_sparse_vector(empty, cfg)) == 0
    full = bm.sample_scene(np.random.default_rng(0), cfg.grid_size, cfg)
    assert sorted(full.cells.tolist()) == list(range(cfg.grid_size))
    with pytest.raises(ValueError):
        bm.sample_scene(np.random.default_rng(0), cfg.grid_size + 1, cfg)
    with pytest.raises(ValueError, match="unknown coeff_model"):
        bm.sample_scene(np.random.default_rng(0), 1, cfg, "bogus")
    with pytest.raises(ValueError, match="K must be nonnegative"):
        bm.sample_scene(np.random.default_rng(0), -1, cfg)


def test_sparse_vector_origin_cell():
    cfg = make_ula_config(2, 3, 1e6, 3e-6)
    scene = bm.TargetScene(cells=[0], alpha=[1.0])
    a = bm.scene_to_sparse_vector(scene, cfg)
    assert a[0] == 1.0 and np.count_nonzero(a) == 1


def test_sparse_vector_index_arithmetic():
    # M=2, N=3, L=3 -> MN=6, ML=6; (l1=2, l2=5) lands at 2*6+5 = 17
    cfg = make_ula_config(2, 3, 1e6, 3e-6)
    assert cfg.mn == 6 and cfg.ml == 6
    scene = bm.TargetScene(cells=[2 * cfg.mn + 5], alpha=[1 + 2j])
    a = bm.scene_to_sparse_vector(scene, cfg)
    assert a[17] == 1 + 2j and np.count_nonzero(a) == 1
    last = bm.TargetScene(cells=[cfg.grid_size - 1], alpha=[1.0])
    assert bm.scene_to_sparse_vector(last, cfg)[-1] == 1.0
    beyond = bm.TargetScene(cells=[3, cfg.grid_size], alpha=[1.0, 1.0])
    with pytest.raises(ValueError, match="exceed the configured grid"):
        bm.scene_to_sparse_vector(beyond, cfg)


def test_scene_roundtrip_property():
    cfg = make_ula_config(2, 3, 1e6, 3e-6)
    rng = np.random.default_rng(3)
    for _ in range(100):
        scene = bm.sample_scene(rng, int(rng.integers(1, 8)), cfg)
        back = scene_from_sparse_vector(bm.scene_to_sparse_vector(scene, cfg), cfg)
        assert np.array_equal(scene.cells, back.cells)
        assert np.array_equal(scene.alpha, back.alpha)


def test_scene_rejects_duplicate_cells():
    with pytest.raises(ValueError, match="distinct"):
        bm.TargetScene(cells=[8, 8], alpha=[1.0, 2.0])
    # and cells out of order, negative, or not one per amplitude
    with pytest.raises(ValueError, match="sorted"):
        bm.TargetScene(cells=[9, 8], alpha=[1.0, 2.0])
    with pytest.raises(ValueError, match="nonnegative"):
        bm.TargetScene(cells=[-1, 8], alpha=[1.0, 2.0])
    with pytest.raises(ValueError, match="equal lengths"):
        bm.TargetScene(cells=[1, 8], alpha=[1.0])
    scene = bm.TargetScene(cells=[1, 8], alpha=[1.0, 2.0])
    with pytest.raises(ValueError):
        scene.cells[0] = 0  # read-only


def test_at_snr_values():
    cfg = make_ula_config(2, 3, 1e6, 3e-6, sigma_alpha_sq=1.0)
    assert cfg.at_snr(10.0).sigma_n_sq == pytest.approx(0.1)
    assert cfg.at_snr(0.0).sigma_n_sq == pytest.approx(1.0)
    assert cfg.at_snr(120.0).sigma_n_sq == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(ValueError):
        cfg.at_snr(-np.inf)  # a linear SNR of 0


def test_at_snr_keeps_the_bits_of_its_expression():
    # at_snr is the one SNR rule: on a 0.01 dB grid over +-300 dB it gives the
    # bits of sigma_alpha_sq / 10^(SNR/10) as the sweep has always computed
    # them, and an SNR whose noise variance is not finite and positive is refused
    cfg = make_ula_config(2, 3, 1e6, 3e-6, sigma_alpha_sq=0.7)
    for x in np.round(np.arange(-300, 300, 0.01), 2):
        want = cfg.sigma_alpha_sq / float(10.0 ** (np.asarray(x, dtype=float) / 10.0))
        assert cfg.at_snr(x).sigma_n_sq == want, x
    for x in (np.nan, 3100, -3100, -3300):
        with pytest.raises(ValueError, match=re.escape(
                "SNR must be finite, with 10^(SNR/10) finite and positive and the noise "
                f"variance sigma_alpha_sq/10^(SNR/10) finite, got {x} dB")):
            cfg.at_snr(x)


def test_at_snr_is_the_checked_config_with_its_noise_variance():
    # at_snr sets sigma_n_sq on a copy of the checked config: the config a
    # replace() that re-runs every check gives, sharing the read-only arrays
    base = make_random_array_config(np.random.default_rng(3), 8, 12, 1e6, 9e-6,
                                       sigma_alpha_sq=0.7)
    for snr_db in (-20.0, 0.0, 13.7, 120.0):
        cfg = base.at_snr(snr_db)
        assert cfg.sigma_n_sq == pytest.approx(0.7 / 10 ** (snr_db / 10))
        want = dataclasses.replace(base, sigma_n_sq=cfg.sigma_n_sq)
        assert config_to_dict(cfg) == config_to_dict(want) and cfg.L == want.L
        for name in ("rx_pos", "tx_pos", "tone_offsets"):
            assert getattr(cfg, name) is getattr(base, name)
            assert not getattr(cfg, name).flags.writeable
    assert base.sigma_n_sq == 1.0
    for bad in ("10", True, None, [10.0], np.nan, np.inf, -np.inf, 3100, -3300):
        with pytest.raises(ValueError):
            base.at_snr(bad)


def test_snr_closed_form_monte_carlo_oracle():
    # E||Phi a||^2 / (K*MNL) should equal sigma_alpha_sq to < 1%, which makes
    # sigma_n_sq = sigma_alpha_sq/SNR realize the target SNR within 2%.
    cfg = make_ula_config(2, 2, 1e6, 3e-6)
    d = build_dictionary(cfg)
    rng = np.random.default_rng(7)
    K, n = 3, 10000
    acc = 0.0
    for _ in range(n):
        sc = bm.sample_scene(rng, K, cfg)
        acc += np.linalg.norm(d.apply_cells(sc.cells, sc.alpha)) ** 2
    mean_energy = acc / n / (K * cfg.mnl)
    assert abs(mean_energy - cfg.sigma_alpha_sq) < 0.01 * cfg.sigma_alpha_sq
    snr = 10.0
    sigma_n = cfg.at_snr(10 * np.log10(snr)).sigma_n_sq
    empirical_snr = mean_energy * K * cfg.mnl / (cfg.mnl * K * sigma_n)
    assert abs(empirical_snr - snr) < 0.02 * snr


def test_config_json_roundtrip(tmp_path):
    import json
    from bitmimo.model import config_to_dict, load_config

    cfg = make_random_array_config(np.random.default_rng(3), 3, 4, 1e6, 3e-6,
                                      eta=2.5, sigma_n_sq=0.3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    back = load_config(path)
    assert back.M == cfg.M and back.N == cfg.N and back.L == cfg.L
    assert np.allclose(back.rx_pos, cfg.rx_pos)
    assert np.allclose(back.tone_offsets, cfg.tone_offsets)
    assert back.eta == cfg.eta and back.sigma_n_sq == cfg.sigma_n_sq

import dataclasses
import re

import numpy as np
import pytest

import bitmimo as bm
from bitmimo.combiner import config_hash
from bitmimo.dictionary import build_dictionary
from bitmimo.model import config_from_dict, config_to_dict


def scene_from_sparse_vector(a, config):
    """Inverse of scene_to_sparse_vector for vectors with distinct support."""
    a = np.asarray(a)
    if a.shape != (config.grid_size,):
        raise ValueError("vector length does not match the configured grid")
    cells = np.flatnonzero(a)
    return bm.TargetScene(cells=cells, alpha=a[cells])


def test_ula_config_paper_scale():
    cfg = bm.make_ula_config(8, 12, 1e6, 9e-6)
    assert cfg.L == 9
    assert cfg.mnl == 864
    assert cfg.grid_size == 6912


def test_ula_degenerate_single_element():
    cfg = bm.make_ula_config(1, 1, 1e6, 1e-6)
    assert cfg.rx_pos[0] == 0 and cfg.tx_pos[0] == 0
    assert cfg.L == 1


def test_ula_positions_m2_n3():
    cfg = bm.make_ula_config(2, 3, 1e6, 3e-6)
    assert np.allclose(cfg.tx_pos, [0.0, 1.5])
    assert np.allclose(cfg.rx_pos, [0.0, 0.5, 1.0])


def test_ula_virtual_positions_distinct():
    cfg = bm.make_ula_config(3, 4, 1e6, 3e-6)
    virt = (cfg.tx_pos[:, None] + cfg.rx_pos[None, :]).ravel()
    assert len(np.unique(virt)) == cfg.mn


def test_reject_even_L():
    with pytest.raises(ValueError):
        bm.make_ula_config(2, 2, 1e6, 4e-6)  # B_h*T_0 = 4, even


def test_tone_count_is_derived():
    # L is no init field: bandwidth*pri sets it, and neither it nor a carrier
    # is a config key
    cfg = bm.make_ula_config(2, 3, 1e6, 3e-6)
    assert cfg.L == 3
    assert dataclasses.replace(cfg, pri=5e-6).L == 5
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(cfg, L=5)
    assert not {"L", "carrier"} & set(config_to_dict(cfg))
    for bandwidth, pri in ((1e308, 10.0), (1e6, 4e-6), (1e6, 3.1e-6)):
        with pytest.raises(ValueError, match="bandwidth\\*pri"):
            bm.make_ula_config(2, 2, bandwidth, pri)


def test_reject_nonpositive():
    with pytest.raises(ValueError):
        bm.make_ula_config(0, 2, 1e6, 3e-6)
    with pytest.raises(ValueError):
        bm.make_ula_config(2, 2, -1e6, 3e-6)
    with pytest.raises(ValueError):
        bm.make_ula_config(2, 2, 1e6, 3e-6, eta=0.0)
    # NaN fails every comparison, so it must not slip past a `x <= 0` check
    for field in ("eta", "sigma_alpha_sq", "sigma_n_sq"):
        with pytest.raises(ValueError, match=field):
            bm.make_ula_config(2, 2, 1e6, 3e-6, **{field: float("nan")})


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
    for made in (bm.make_ula_config(2, 3, 1e6, 3e-6),
                 bm.make_random_array_config(np.random.default_rng(0), 2, 3, 1e6, 3e-6)):
        assert {key: getattr(made, key) for key in defaults} == defaults
    for change, message in (
            ({"M": True}, "M must be an integer >= 1, got True"),
            ({"N": 2.0}, "N must be an integer >= 1, got 2.0"),
            ({"rx_pos": [[0.0, 1.0]]}, "rx_pos must be a list of finite numbers"),
            ({"tone_offsets": [np.nan]}, "tone_offsets must be a list of finite numbers"),
            ({"tx_pos": [10 ** 400]}, "tx_pos must be a number a float can hold"),
            ({"bandwidth": 10 ** 400}, "bandwidth must be a number a float can hold"),
            ({"eta": None}, "eta must be a number a float can hold"),
            ({"pri": -np.inf}, "pri must be positive and finite"),
            ({"sigma_alpha_sq": 0.0}, "sigma_alpha_sq must be positive and finite"),
            ({"sigma_n_sq": -1.0}, "sigma_n_sq must be nonnegative and finite")):
        with pytest.raises(ValueError, match=re.escape(message)):
            dataclasses.replace(cfg, **change)


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
    cfg1 = bm.make_random_array_config(np.random.default_rng(42), 4, 3, 1e6, 3e-6)
    cfg2 = bm.make_random_array_config(np.random.default_rng(42), 4, 3, 1e6, 3e-6)
    assert np.array_equal(cfg1.rx_pos, cfg2.rx_pos)
    assert np.array_equal(cfg1.tone_offsets, cfg2.tone_offsets)
    cfg3 = bm.make_random_array_config(np.random.default_rng(43), 4, 3, 1e6, 3e-6)
    assert not np.array_equal(cfg1.rx_pos, cfg3.rx_pos)


def test_random_array_tone_permutation():
    cfg = bm.make_random_array_config(np.random.default_rng(0), 8, 12, 1e6, 9e-6)
    normalized = cfg.tone_offsets / cfg.bandwidth + (8 + 1) / 2.0
    assert sorted(np.rint(normalized).astype(int).tolist()) == list(range(8))
    # offsets land on the half-integer grid {-4.5 .. +3.5}
    assert set(np.round(cfg.tone_offsets / cfg.bandwidth, 6)) <= {i - 4.5 for i in range(8)}


def test_random_array_positions_in_aperture():
    cfg = bm.make_random_array_config(np.random.default_rng(5), 4, 6, 1e6, 3e-6)
    assert cfg.rx_pos[0] == 0 and cfg.tx_pos[0] == 0
    assert np.all(cfg.rx_pos <= cfg.mn / 2) and np.all(cfg.rx_pos >= 0)
    assert np.all(cfg.tx_pos <= cfg.mn / 2) and np.all(cfg.tx_pos >= 0)


def test_sample_scene_gaussian_counts_and_power():
    cfg = bm.make_ula_config(2, 3, 1e6, 3e-6)
    rng = np.random.default_rng(1)
    draws = [bm.sample_scene(rng, 4, cfg) for _ in range(4000)]
    for sc in draws[:50]:
        assert sc.k == 4
        assert len(set(sc.cells.tolist())) == 4
    power = np.mean([np.abs(sc.alpha) ** 2 for sc in draws])
    assert abs(power - cfg.sigma_alpha_sq) < 0.05


def test_sample_scene_unit_modulus():
    cfg = bm.make_ula_config(2, 3, 1e6, 3e-6, sigma_alpha_sq=4.0)
    scene = bm.sample_scene(np.random.default_rng(2), 5, cfg, "unit_modulus")
    assert np.allclose(np.abs(scene.alpha), 2.0)


def test_sample_scene_edge_cases():
    cfg = bm.make_ula_config(2, 3, 1e6, 3e-6)
    empty = bm.sample_scene(np.random.default_rng(0), 0, cfg)
    assert empty.k == 0
    assert np.count_nonzero(bm.scene_to_sparse_vector(empty, cfg)) == 0
    full = bm.sample_scene(np.random.default_rng(0), cfg.grid_size, cfg)
    assert sorted(full.cells.tolist()) == list(range(cfg.grid_size))
    with pytest.raises(ValueError):
        bm.sample_scene(np.random.default_rng(0), cfg.grid_size + 1, cfg)
    with pytest.raises(ValueError, match="unknown coeff_model"):
        bm.sample_scene(np.random.default_rng(0), 1, cfg, "bogus")


def test_sparse_vector_origin_cell():
    cfg = bm.make_ula_config(2, 3, 1e6, 3e-6)
    scene = bm.TargetScene(cells=[0], alpha=[1.0])
    a = bm.scene_to_sparse_vector(scene, cfg)
    assert a[0] == 1.0 and np.count_nonzero(a) == 1


def test_sparse_vector_index_arithmetic():
    # M=2, N=3, L=3 -> MN=6, ML=6; (l1=2, l2=5) lands at 2*6+5 = 17
    cfg = bm.make_ula_config(2, 3, 1e6, 3e-6)
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
    cfg = bm.make_ula_config(2, 3, 1e6, 3e-6)
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
    cfg = bm.make_ula_config(2, 3, 1e6, 3e-6, sigma_alpha_sq=1.0)
    assert cfg.at_snr(10.0).sigma_n_sq == pytest.approx(0.1)
    assert cfg.at_snr(0.0).sigma_n_sq == pytest.approx(1.0)
    assert cfg.at_snr(120.0).sigma_n_sq == pytest.approx(0.0, abs=1e-11)
    with pytest.raises(ValueError):
        cfg.at_snr(-np.inf)  # a linear SNR of 0


def test_at_snr_keeps_the_bits_of_its_expression():
    # at_snr is the one SNR rule: on a 0.01 dB grid over +-300 dB it gives the
    # bits of sigma_alpha_sq / 10^(SNR/10) as the sweep has always computed
    # them, and an SNR whose noise variance is not finite and positive is refused
    cfg = bm.make_ula_config(2, 3, 1e6, 3e-6, sigma_alpha_sq=0.7)
    for x in np.round(np.arange(-300, 300, 0.01), 2):
        want = cfg.sigma_alpha_sq / float(10.0 ** (np.asarray(x, dtype=float) / 10.0))
        assert cfg.at_snr(x).sigma_n_sq == want, x
    for x in (np.nan, 3100, -3100, -3300):
        with pytest.raises(ValueError, match=re.escape(
                "SNR must be finite, with 10^(SNR/10) finite and positive and the noise "
                f"variance sigma_alpha_sq/10^(SNR/10) finite, got {x} dB")):
            cfg.at_snr(x)


def test_snr_closed_form_monte_carlo_oracle():
    # E||Phi a||^2 / (K*MNL) should equal sigma_alpha_sq to < 1%, which makes
    # sigma_n_sq = sigma_alpha_sq/SNR realize the target SNR within 2%.
    cfg = bm.make_ula_config(2, 2, 1e6, 3e-6)
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

    cfg = bm.make_random_array_config(np.random.default_rng(3), 3, 4, 1e6, 3e-6,
                                      eta=2.5, sigma_n_sq=0.3)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    back = load_config(path)
    assert back.M == cfg.M and back.N == cfg.N and back.L == cfg.L
    assert np.allclose(back.rx_pos, cfg.rx_pos)
    assert np.allclose(back.tone_offsets, cfg.tone_offsets)
    assert back.eta == cfg.eta and back.sigma_n_sq == cfg.sigma_n_sq

"""Layout shorthands for the tests: config_from_dict, with its checks and
messages, on a generated layout given by position."""

from bitmimo.model import RadarConfig, config_from_dict


def make_ula_config(M, N, bandwidth, pri, **scalars) -> RadarConfig:
    """config_from_dict's "ula" layout; scalars are RadarConfig's eta,
    sigma_alpha_sq and sigma_n_sq."""
    return config_from_dict(dict(scalars, M=M, N=N, bandwidth=bandwidth, pri=pri))


def make_random_array_config(rng, M, N, bandwidth, pri, **scalars) -> RadarConfig:
    """config_from_dict's "random" layout drawn from rng; scalars as for
    make_ula_config."""
    return config_from_dict(dict(scalars, M=M, N=N, bandwidth=bandwidth, pri=pri,
                                 array="random"), rng=rng)

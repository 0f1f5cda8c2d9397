"""Experiment orchestration CLI.

Reproduces the attack protocols end-to-end from flat key=value config
files, persists artifacts, and emits CSV report tables. Exit codes: 0 on
success, 2 on validation errors and on missing or corrupt files, 3 on
numerical failure.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import accounting, data, glm, metrics, mia, nn, rero, shadow
from .persist import config_hash, header_field, int_tuple, load_model, save_model, write_csv
from .rng import _derive

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


# ------------------------------------------------------------- config file

# every key a config file may set, by section; parse_config refuses any other
# and _get reads no other
CONFIG_KEYS = {
    "profile": {"name", "seed"},
    "data": {"d", "num_classes", "n", "cluster_std", "images", "labels", "downsample_factor"},
    "split": {"fixed_size", "shadow_size", "test_target_size", "split_seed"},
    "released": {"hidden_widths", "activation", "optimizer", "learning_rate", "momentum",
                 "epochs", "batch_size", "clip_norm", "noise_multiplier", "init_seed",
                 "shuffle_seed", "noise_seed"},
    "reconn": {"hidden_widths", "learning_rate", "batch_size", "epochs", "seed"},
    "featurizer": {"mode", "layers", "probe_size"},
    "dp": {"delta", "clip_norm"},
}


def parse_config(path: str) -> dict:
    """Flat key=value file with [section] headers -> {"section.key": value}.
    A key not in CONFIG_KEYS raises a ConfigError naming it."""
    cfg = {}
    section = ""
    try:
        with open(path) as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(str(e)) from None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            continue
        key, sep, val = line.partition("=")
        if not sep:
            raise ConfigError(f"malformed config line: {raw!r}")
        key = key.strip()
        if key not in CONFIG_KEYS.get(section, ()):
            raise ConfigError(f"{path}: unknown config key {section}.{key}")
        cfg[f"{section}.{key}"] = val.strip()
    cfg["__hash__"] = config_hash(text)
    return cfg


@contextlib.contextmanager
def _named(key):
    """Turn a ValueError raised in the block into a ConfigError naming key (a
    config key or section, or a flag); a ConfigError passes unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{key}: {e}") from None


def _cast(key, text, cast):
    """cast(text), or a ConfigError naming key."""
    with _named(key):
        return cast(text)


def _get(cfg, key, default=None, cast=str):
    section, _, name = key.partition(".")
    if name not in CONFIG_KEYS.get(section, ()):
        raise KeyError(f"{key} is not in CONFIG_KEYS")
    if key not in cfg or cfg[key] == "":
        if default is None:
            raise ConfigError(f"missing config key {key}")
        return default
    return _cast(key, cfg[key], cast)


def load_profile(cfg: dict):
    """Build (fixed, shadow_pool, targets, arch, train_config) from a config."""
    profile = _get(cfg, "profile.name", "desk_synthetic")
    if profile == "desk_synthetic":
        with _named("data"):
            dataset = data.synth_classification(
                d=_get(cfg, "data.d", 64, int),
                num_classes=_get(cfg, "data.num_classes", 10, int),
                n=_get(cfg, "data.n", 5000, int),
                cluster_std=_get(cfg, "data.cluster_std", 0.15, float),
                seed=_get(cfg, "profile.seed", 11, int),
            )
    elif profile in ("desk_mnist14", "full_mnist"):
        dataset = data.load_idx(_get(cfg, "data.images"), _get(cfg, "data.labels"))
        if profile == "desk_mnist14":
            side = int(math.isqrt(dataset.dim))
            factor = _get(cfg, "data.downsample_factor", 2, int)
            dataset = data.downsample_images(dataset, side, side, factor)
    else:
        raise ConfigError(f"unknown profile {profile!r}")

    with _named("split"):
        spec = data.SplitSpec(
            fixed_size=_get(cfg, "split.fixed_size", 500, int),
            shadow_size=_get(cfg, "split.shadow_size", 2000, int),
            test_target_size=_get(cfg, "split.test_target_size", 100, int),
            split_seed=_get(cfg, "split.split_seed", 5, int),
        )
        fixed, shadow_pool, targets = data.split(dataset, spec)

    hidden = _get(cfg, "released.hidden_widths", (10,), int_tuple)
    arch = _cast("released.hidden_widths", hidden,
                 lambda h: nn.MlpArchitecture((dataset.dim, *h, dataset.num_classes)))
    arch = _cast("released.activation", _get(cfg, "released.activation", "elu"),
                 lambda a: replace(arch, activation=a))
    batch = _get(cfg, "released.batch_size", "full")
    noise = _get(cfg, "released.noise_multiplier", "none")
    with _named("released"):
        train_cfg = nn.TrainConfig(
            optimizer=_get(cfg, "released.optimizer", "gd_momentum"),
            learning_rate=_get(cfg, "released.learning_rate", 0.2, float),
            momentum=_get(cfg, "released.momentum", 0.9, float),
            epochs=_get(cfg, "released.epochs", 50, int),
            batch_size="full" if batch == "full" else _cast("released.batch_size", batch, int),
            clip_norm=_get(cfg, "released.clip_norm", 0.0, float) or None,
            noise_multiplier=None if noise == "none" else _cast("released.noise_multiplier",
                                                                noise, float),
            init_seed=_get(cfg, "released.init_seed", 101, int),
            shuffle_seed=_get(cfg, "released.shuffle_seed", 102, int),
            noise_seed=_get(cfg, "released.noise_seed", 103, int),
        )
    return fixed, shadow_pool, targets, arch, train_cfg


def reconn_config(cfg: dict) -> shadow.RecoNNConfig:
    widths = _get(cfg, "reconn.hidden_widths", "auto")
    config = shadow.RecoNNConfig(
        learning_rate=_get(cfg, "reconn.learning_rate", 1e-3, float),
        batch_size=_get(cfg, "reconn.batch_size", 128, int),
        epochs=_get(cfg, "reconn.epochs", 100, int),
        seed=_get(cfg, "reconn.seed", 7, int),
    )
    if widths == "auto":
        return config
    return _cast("reconn.hidden_widths", widths,
                 lambda text: replace(config, hidden_widths=int_tuple(text)))


def build_featurizer(cfg: dict, shadow_pool, arch: nn.MlpArchitecture, args):
    """Featurizer from config and the --featurizer/--layers/--probe-size flags.
    Layers mode defaults to the last layer. Blackbox probes are the first P
    shadow-pool points, which are then excluded from shadow targets; returns
    (featurizer, remaining shadow pool)."""
    mode = args.featurizer or _get(cfg, "featurizer.mode", "whitebox")
    if mode == "whitebox":
        return shadow.Featurizer("whitebox"), shadow_pool
    if mode == "layers":
        key = "featurizer.layers" if args.layers is None else "--layers"
        layers = _get(cfg, key, str(arch.num_layers - 1)) if args.layers is None else args.layers
        idx = _cast(key, layers, int_tuple)
        if not idx or not all(0 <= i < arch.num_layers for i in idx):
            raise ConfigError(f"{key} must list layer indices in 0..{arch.num_layers - 1}")
        return shadow.Featurizer("layers", layers=idx), shadow_pool
    if mode == "blackbox":
        key, p = "--probe-size", args.probe_size
        if p is None:
            key, p = "featurizer.probe_size", _get(cfg, "featurizer.probe_size", 200, int)
        if p < 1:
            raise ConfigError(f"{key} must be >= 1")
        if p >= len(shadow_pool):
            raise ConfigError(f"{key} must be smaller than the shadow pool")
        probe = shadow_pool.subset(range(p))
        rest = shadow_pool.subset(range(p, len(shadow_pool)))
        return shadow.Featurizer("blackbox", probe=probe.X), rest
    raise ConfigError(f"unknown featurizer mode {mode!r}")


def _check_config_hash(fields: dict, path: str, cfg: dict) -> None:
    """Refuse an artifact whose header does not carry the hash of --config."""
    got = header_field(fields, "config_hash", path)
    if got != cfg["__hash__"]:
        raise ConfigError(f"{path}: config_hash {got} differs from "
                          f"{cfg['__hash__']}, the hash of --config")


# ------------------------------------------------------------- subcommands

def cmd_train_released(args) -> int:
    cfg = parse_config(args.config)
    fixed, _, targets, arch, train_cfg = load_profile(cfg)
    os.makedirs(args.out, exist_ok=True)
    released = shadow.train_many(fixed, targets, arch, [train_cfg] * len(targets))
    for i, theta in enumerate(released):
        save_model(
            os.path.join(args.out, f"target_{i:04d}.model"),
            theta,
            {
                "target_index": i,
                "config_hash": cfg["__hash__"],
                "init_seed": train_cfg.init_seed,
                "shuffle_seed": train_cfg.shuffle_seed,
                "noise_seed": train_cfg.noise_seed,
            },
        )
    targets_path = os.path.join(args.out, "targets.csv")
    data.save_csv(targets, targets_path)
    print(f"wrote {len(targets)} released models to {args.out}")
    return EXIT_OK


def cmd_gen_shadows(args) -> int:
    cfg = parse_config(args.config)
    fixed, shadow_pool, _, arch, train_cfg = load_profile(cfg)
    if args.k is not None and args.k <= 0:
        raise ConfigError("--k must be positive")
    if args.ood_pool:
        ood = data.load_csv(args.ood_pool, args.ood_label_column)
        if ood.dim != fixed.dim:
            raise ConfigError(f"--ood-pool has {ood.dim} features, the fixed set {fixed.dim}")
        shadow_pool = data.relabel_random(
            ood, fixed.num_classes, seed=_get(cfg, "profile.seed", 11, int)
        )
    featurizer, shadow_pool = build_featurizer(cfg, shadow_pool, arch, args)
    if args.k is not None:
        # checked against the final pool: after --ood-pool and the black-box probe
        if args.k > len(shadow_pool):
            raise ConfigError("--k exceeds shadow pool size")
        shadow_pool = shadow_pool.subset(range(args.k))
    shadow_set = shadow.gen_shadows(
        fixed, shadow_pool, arch, train_cfg, featurizer, random_init=args.random_init
    )
    os.makedirs(args.out, exist_ok=True)
    prefix = os.path.join(args.out, "shadows")
    shadow_set.save(prefix, {"config_hash": cfg["__hash__"]})  # provenance, which attack checks
    data.save_csv(shadow_pool, os.path.join(args.out, "shadow_targets.csv"))
    print(
        f"wrote shadow set: k={len(shadow_set)} feature_len={shadow_set.features.shape[1]}"
    )
    return EXIT_OK


def cmd_attack(args) -> int:
    cfg = parse_config(args.config)
    fixed, shadow_pool, _, _, _ = load_profile(cfg)
    targets = data.load_csv(os.path.join(args.released, "targets.csv"), "label")
    released = []
    for i in range(len(targets)):
        path = os.path.join(args.released, f"target_{i:04d}.model")
        theta, meta = load_model(path)
        _check_config_hash(meta, path, cfg)
        released.append(theta)
    prefix = os.path.join(args.shadows, "shadows")
    shadow_set, fields = shadow.ShadowSet.load(prefix)
    _check_config_hash(fields, prefix + ".header", cfg)

    phi = shadow.train_reconn(shadow_set, reconn_config(cfg))
    pool_X = np.vstack([fixed.X, shadow_pool.X])
    report = metrics.oracle_report(targets.X, pool_X)
    threshold = report.mean_nn_distance

    errors = shadow.attack_errors(phi, released, targets.X)
    rows = [(i, err, report.nn_distances[i], metrics.judge_success(err, threshold))
            for i, err in enumerate(errors.tolist())]

    os.makedirs(args.out, exist_ok=True)
    write_csv(
        os.path.join(args.out, "attack_results.csv"),
        ["target", "mse", "nn_oracle_distance", "success"],
        rows,
        cfg["__hash__"],
    )
    mean_mse = float(np.mean(errors))
    with open(os.path.join(args.out, "summary.txt"), "w") as f:
        f.write(f"# config_hash={cfg['__hash__']}\n")
        f.write(f"mean_attack_mse={mean_mse}\n")
        f.write(f"oracle_threshold={threshold}\n")
        f.write(f"success={metrics.judge_success(mean_mse, threshold)}\n")
        for p, v in report.percentiles.items():
            f.write(f"oracle_percentile_{p}={v}\n")
    print(f"mean attack MSE {mean_mse:.6f} vs oracle {threshold:.6f}")
    return EXIT_OK


def cmd_glm_attack(args) -> int:
    # regression responses need not be integer class labels, so no load_csv
    X, Y = data.read_table(args.fixed, args.label_column)
    theta = np.loadtxt(args.theta, delimiter=",", ndmin=1)
    if not np.isfinite(theta).all():
        raise ConfigError(f"{args.theta}: every value must be finite")
    if args.no_intercept:
        if args.target_label is None or not np.isfinite(args.target_label):
            raise ConfigError("--no-intercept requires a finite --target-label")
        c1, c2 = glm.reconstruct_linreg_no_intercept(theta, X, Y, args.target_label)
        print("candidate_1=" + ",".join(repr(float(v)) for v in c1))
        print("candidate_2=" + ",".join(repr(float(v)) for v in c2))
        return EXIT_OK
    spec = glm.GlmSpec(args.family, args.lam)
    x, y = glm.reconstruct_glm(theta, glm.add_intercept(X), Y, spec)
    print("x=" + ",".join(repr(float(v)) for v in x))
    print(f"y={float(y)!r}")
    return EXIT_OK


def cmd_mia(args) -> int:
    cfg = parse_config(args.config)
    fixed, _, targets, arch, train_cfg = load_profile(cfg)
    if len(targets) < 2:
        raise ConfigError("need at least two test targets")
    if args.trials < 1:
        raise ConfigError("--trials must be positive")
    z0, z1 = targets[0], targets[1]
    if args.attack == "trivial":
        attack_fn = mia.trivial_deterministic_mia
    else:  # constant guesser baseline
        attack_fn = lambda *a: 0
    rows = []
    for t in range(args.trials):
        try:
            trial = mia.informed_mia_protocol(
                fixed, z0, z1, arch, train_cfg, attack_fn,
                trial_seed=_derive(args.seed, ("mia", t)),
            )
        except (nn.DivergenceError, mia.UndecidedError) as e:
            print(f"error: trial {t}: {e}", file=sys.stderr)
            return EXIT_NUMERICAL
        rows.append((t, trial.b, trial.b_hat, int(trial.correct)))
    os.makedirs(args.out, exist_ok=True)
    write_csv(
        os.path.join(args.out, "mia_trials.csv"),
        ["trial", "b", "b_hat", "correct"],
        rows,
        cfg["__hash__"],
    )
    acc = sum(r[3] for r in rows) / len(rows)
    print(f"accuracy={acc}")
    return EXIT_OK


def cmd_dp_sweep(args) -> int:
    cfg = parse_config(args.config)
    fixed, shadow_pool, targets, arch, base_cfg = load_profile(cfg)
    sigmas = _cast("--sigmas", args.sigmas, lambda text: [float(s) for s in text.split(",")])
    if not all(0 <= s < math.inf for s in sigmas):
        raise ConfigError(f"--sigmas must be finite and >= 0, got {args.sigmas}")
    delta = _get(cfg, "dp.delta", 1e-5, float)
    clip = _get(cfg, "dp.clip_norm", 1.0, float)
    if not 0 < clip < math.inf:
        raise ConfigError(f"dp.clip_norm must be finite and > 0, got {clip}")
    epsilons = [math.inf if sigma == 0.0 else accounting.zcdp_to_approx_dp(
        accounting.account_dpgd(base_cfg.epochs, clip, sigma), delta) for sigma in sigmas]
    pool_X = np.vstack([fixed.X, shadow_pool.X])
    threshold = metrics.oracle_report(targets.X, pool_X).mean_nn_distance

    def run_config(sigma, rep):
        init_seed = _derive(base_cfg.init_seed, ("rep", rep))
        if sigma == 0.0:
            return replace(base_cfg, init_seed=init_seed)
        return replace(base_cfg, optimizer="dpgd", clip_norm=clip, noise_multiplier=sigma,
                       init_seed=init_seed,
                       noise_seed=_derive(base_cfg.noise_seed, ("adv", sigma, rep)))

    table = shadow.dp_tradeoff(
        fixed, shadow_pool, targets, arch, sigmas, args.repeats, run_config,
        lambda sigma, rep, i: _derive(base_cfg.noise_seed, ("released", sigma, rep, i)),
        reconn_config(cfg),
    )
    rows = [(sigma, eps, *row) for sigma, eps, row in zip(sigmas, epsilons, table)]
    os.makedirs(args.out, exist_ok=True)
    write_csv(
        os.path.join(args.out, "dp_sweep.csv"),
        ["sigma", "epsilon", "mean_attack_mse", "stderr", "test_accuracy"],
        rows,
        cfg["__hash__"],
    )
    print(f"oracle_threshold={threshold}")
    for row in rows:
        print("sigma=%g eps=%g mse=%g stderr=%g acc=%g" % row)
    return EXIT_OK


def cmd_rero_bound(args) -> int:
    privacy = "rho" if args.rho is not None else "eps"
    formulas = {  # flag: (required inputs, bound)
        "thm3": (("eps", "gamma"), lambda: rero.rero_to_dp(args.eps, args.gamma)),
        "thm2": (("alpha", "eps", "kappa"),
                 lambda: rero.rdp_to_rero(args.alpha, args.eps, args.kappa, args.eta)),
        "cor1": (("eps", "kappa"), lambda: rero.puredp_to_rero(args.eps, args.kappa, args.eta)),
        "cor2": (("rho", "kappa"), lambda: rero.zcdp_to_rero(args.rho, args.kappa, args.eta)),
        "prop1": (("d", privacy), lambda: rero.prop_gamma(
            args.d, args.eta, {privacy: getattr(args, privacy)}, "uniform_ball")),
        "prop2": (("d", privacy, "sigma"), lambda: rero.prop_gamma(
            args.d, args.eta, {privacy: getattr(args, privacy)}, "gaussian", sigma=args.sigma)),
    }
    chosen = [f for f in formulas if getattr(args, f)]
    if len(chosen) != 1:
        given = f", not --{' and --'.join(chosen)}" if chosen else ""
        raise ConfigError(f"choose one of --thm2/--cor1/--cor2/--thm3/--prop1/--prop2{given}")
    flag, = chosen
    if args.eps is not None and args.rho is not None:
        raise ConfigError("give --eps or --rho, not both")
    required, bound = formulas[flag]
    missing = ["--" + name for name in required if getattr(args, name) is None]
    if missing:
        raise ConfigError(f"--{flag} requires {', '.join(missing)}")
    for name in ("eta", "sigma"):
        value = getattr(args, name)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{name} must be finite, got {value}")
    if flag == "thm3":
        print(f"delta={bound()!r}")
        return EXIT_OK
    b = bound()
    print(f"gamma={b.gamma!r}")
    print(f"kappa={b.kappa!r}")
    print(f"source={b.source}")
    return EXIT_OK


def cmd_rero_check(args) -> int:
    violations = 0
    for cell in rero.rero_soundness_grid(n_trials=args.trials, seed=args.seed):
        status = "ok" if cell["sound"] else "VIOLATION"
        print(
            "noise=%(noise)g eta=%(eta)g prior=%(prior)d kappa=%(kappa).4f "
            "gamma=%(gamma).4f rate=%(rate).4f" % cell,
            status,
        )
        if not cell["sound"]:
            violations += 1
    if violations:
        print(f"error: {violations} soundness violations", file=sys.stderr)
        return 1
    print("all cells sound")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="reconlab")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train-released", help="train one released model per test target")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train_released)

    p = sub.add_parser("gen-shadows", help="materialize a shadow set")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--ood-pool")
    p.add_argument("--ood-label-column", default="label")
    p.add_argument("--random-init", action="store_true")
    p.add_argument("--featurizer", choices=["whitebox", "layers", "blackbox"])
    p.add_argument("--layers")
    p.add_argument("--probe-size", type=int)
    p.set_defaults(fn=cmd_gen_shadows)

    p = sub.add_parser("attack", help="train the reconstructor and attack released models")
    p.add_argument("--config", required=True)
    p.add_argument("--shadows", required=True)
    p.add_argument("--released", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_attack)

    p = sub.add_parser("glm-attack", help="closed-form GLM reconstruction from CSV data")
    p.add_argument("--fixed", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--theta", required=True)
    p.add_argument("--family", default="linear", choices=["linear", "ridge", "logistic"])
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--no-intercept", action="store_true")
    p.add_argument("--target-label", type=float)
    p.set_defaults(fn=cmd_glm_attack)

    p = sub.add_parser("mia", help="run the informed membership-inference game")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--attack", choices=["trivial", "constant"], default="trivial")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_mia)

    p = sub.add_parser("dp-sweep", help="sweep DP noise levels and report the trade-off")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sigmas", default="0,0.5,2,8")
    p.add_argument("--repeats", type=int, default=3)
    p.set_defaults(fn=cmd_dp_sweep)

    p = sub.add_parser("rero-bound", help="evaluate a reconstruction-robustness formula")
    p.add_argument("--thm2", action="store_true")
    p.add_argument("--cor1", action="store_true")
    p.add_argument("--cor2", action="store_true")
    p.add_argument("--thm3", action="store_true")
    p.add_argument("--prop1", action="store_true")
    p.add_argument("--prop2", action="store_true")
    p.add_argument("--kappa", type=float)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--eps", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--d", type=int)
    p.add_argument("--sigma", type=float)
    p.set_defaults(fn=cmd_rero_bound)

    p = sub.add_parser("rero-check", help="empirical soundness suite for the ReRo bounds")
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_rero_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, data.FormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (nn.DivergenceError, glm.GlmError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

"""Experiment orchestration CLI.

Reproduces the attack protocols end-to-end from flat key=value config
files, persists artifacts, and emits CSV report tables. Exit codes: 0 on
success, 2 on validation errors and on missing or corrupt files, 3 on
numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import warnings
from functools import partial

import numpy as np

from . import accounting, data, glm, metrics, mia, nn, rero, shadow
from .persist import header_field, load_model, save_model, write_csv
from .profile import (ConfigError, build_featurizer, load_profile, named, parse_config,
                      reconn_config, run_config)
from .rng import _derive

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _check_config_hash(fields: dict, path: str, cfg: dict) -> None:
    """Refuse an artifact whose header does not carry the hash of --config."""
    got = header_field(fields, "config_hash", path)
    if got != cfg.hash:
        raise ConfigError(f"{path}: config_hash {got} differs from "
                          f"{cfg.hash}, the hash of --config")


# ------------------------------------------------------------- subcommands

def cmd_train_released(args) -> int:
    cfg = parse_config(args.config)
    fixed, _, targets, arch, train_cfg = load_profile(cfg)
    os.makedirs(args.out, exist_ok=True)
    released = shadow.train_many(fixed, targets, arch, [train_cfg] * len(targets))
    for i, theta in enumerate(released):
        save_model(os.path.join(args.out, f"target_{i:04d}.model"), theta, {
            "target_index": i, "config_hash": cfg.hash, "init_seed": train_cfg.init_seed,
            "shuffle_seed": train_cfg.shuffle_seed, "noise_seed": train_cfg.noise_seed})
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
        shadow_pool = data.relabel_random(ood, fixed.num_classes, seed=cfg["profile.seed"])
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
    shadow_set.save(prefix, {"config_hash": cfg.hash})  # provenance, which attack checks
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
    write_csv(os.path.join(args.out, "attack_results.csv"),
              ["target", "mse", "nn_oracle_distance", "success"], rows, cfg.hash)
    mean_mse = float(np.mean(errors))
    with open(os.path.join(args.out, "summary.txt"), "w") as f:
        f.write(f"# config_hash={cfg.hash}\n")
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
    if not args.no_intercept:
        X = glm.add_intercept(X)
    with named(f"--theta {args.theta}"), warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        theta = np.loadtxt(args.theta, delimiter=",", ndmin=1)
    if not theta.size:
        raise ConfigError(f"--theta {args.theta}: no values")
    if not np.isfinite(theta).all():
        raise ConfigError(f"--theta {args.theta}: every value must be finite")
    if args.no_intercept and (args.target_label is None or not np.isfinite(args.target_label)):
        raise ConfigError("--no-intercept requires a finite --target-label")
    if theta.shape != X.shape[1:]:
        with_intercept = "" if args.no_intercept else ", the intercept included"
        raise ConfigError(f"--theta holds {theta.size} values, but the model of --fixed has "
                          f"{X.shape[1]}{with_intercept}")
    if args.no_intercept:
        c1, c2 = glm.reconstruct_linreg_no_intercept(theta, X, Y, args.target_label)
        print("candidate_1=" + ",".join(repr(float(v)) for v in c1))
        print("candidate_2=" + ",".join(repr(float(v)) for v in c2))
        return EXIT_OK
    spec = glm.GlmSpec(args.family, args.lam)
    x, y = glm.reconstruct_glm(theta, X, Y, spec)
    print("x=" + ",".join(repr(float(v)) for v in x))
    print(f"y={float(y)!r}")
    return EXIT_OK


def cmd_mia(args) -> int:
    if args.trials < 1:
        raise ConfigError("--trials must be positive")
    cfg = parse_config(args.config)
    fixed, _, targets, arch, train_cfg = load_profile(cfg)
    if len(targets) < 2:
        raise ConfigError("need at least two test targets")
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
    write_csv(os.path.join(args.out, "mia_trials.csv"), ["trial", "b", "b_hat", "correct"],
              rows, cfg.hash)
    acc = sum(r[3] for r in rows) / len(rows)
    print(f"accuracy={acc}")
    return EXIT_OK


def cmd_dp_sweep(args) -> int:
    if args.repeats < 1:
        raise ConfigError("--repeats must be >= 1")
    cfg = parse_config(args.config)
    fixed, shadow_pool, targets, arch, base_cfg = load_profile(cfg)
    with named("--sigmas"):
        sigmas = [float(s) for s in args.sigmas.split(",")]
    if not all(0 <= s < math.inf for s in sigmas):
        raise ConfigError(f"--sigmas must be finite and >= 0, got {args.sigmas}")
    delta, clip = cfg["dp.delta"], cfg["dp.clip_norm"]
    if not 0 < clip < math.inf:
        raise ConfigError(f"dp.clip_norm must be finite and > 0, got {clip}")
    epsilons = [math.inf if sigma == 0.0 else accounting.zcdp_to_approx_dp(
        accounting.account_dpgd(base_cfg.epochs, clip, sigma), delta) for sigma in sigmas]
    pool_X = np.vstack([fixed.X, shadow_pool.X])
    threshold = metrics.oracle_report(targets.X, pool_X).mean_nn_distance

    table = shadow.dp_tradeoff(
        fixed, shadow_pool, targets, arch, sigmas, args.repeats,
        partial(run_config, base_cfg, clip),
        lambda sigma, rep, i: _derive(base_cfg.noise_seed, ("released", sigma, rep, i)),
        reconn_config(cfg),
    )
    rows = [(sigma, eps, *row) for sigma, eps, row in zip(sigmas, epsilons, table)]
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "dp_sweep.csv"),
              ["sigma", "epsilon", "mean_attack_mse", "stderr", "test_accuracy"], rows, cfg.hash)
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
    if args.trials < 100:
        raise ConfigError("--trials must be >= 100")
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

    def command(fn, help, config=True):
        """The subparser running fn, named after it; a pipeline command reads
        --config and writes into --out."""
        p = sub.add_parser(fn.__name__.removeprefix("cmd_").replace("_", "-"), help=help)
        p.set_defaults(fn=fn)
        if config:
            p.add_argument("--config", required=True)
            p.add_argument("--out", required=True)
        return p

    command(cmd_train_released, "train one released model per test target")

    p = command(cmd_gen_shadows, "materialize a shadow set")
    p.add_argument("--k", type=int)
    p.add_argument("--ood-pool")
    p.add_argument("--ood-label-column", default="label")
    p.add_argument("--random-init", action="store_true")
    p.add_argument("--featurizer", choices=["whitebox", "layers", "blackbox"])
    p.add_argument("--layers")
    p.add_argument("--probe-size", type=int)

    p = command(cmd_attack, "train the reconstructor and attack released models")
    p.add_argument("--shadows", required=True)
    p.add_argument("--released", required=True)

    p = command(cmd_glm_attack, "closed-form GLM reconstruction from CSV data", config=False)
    p.add_argument("--fixed", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--theta", required=True)
    p.add_argument("--family", default="linear", choices=["linear", "ridge", "logistic"])
    p.add_argument("--lam", type=float, default=0.0)
    p.add_argument("--no-intercept", action="store_true")
    p.add_argument("--target-label", type=float)

    p = command(cmd_mia, "run the informed membership-inference game")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--attack", choices=["trivial", "constant"], default="trivial")
    p.add_argument("--seed", type=int, default=0)

    p = command(cmd_dp_sweep, "sweep DP noise levels and report the trade-off")
    p.add_argument("--sigmas", default="0,0.5,2,8")
    p.add_argument("--repeats", type=int, default=3)

    p = command(cmd_rero_bound, "evaluate a reconstruction-robustness formula", config=False)
    for flag in ("thm2", "cor1", "cor2", "thm3", "prop1", "prop2"):
        p.add_argument("--" + flag, action="store_true")
    for name in ("kappa", "eps", "rho", "alpha", "gamma", "sigma"):
        p.add_argument("--" + name, type=float)
    p.add_argument("--eta", type=float, default=0.5)
    p.add_argument("--d", type=int)

    p = command(cmd_rero_check, "empirical soundness suite for the ReRo bounds", config=False)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)

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

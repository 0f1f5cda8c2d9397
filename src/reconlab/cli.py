"""Experiment orchestration CLI.

Reproduces the attack protocols end-to-end from flat key=value config
files, persists artifacts, and emits CSV report tables. Exit codes: 0 on
success, 2 on validation errors and on missing or corrupt files, 3 on
numerical failure.

Each command imports the modules it runs when it starts, so ``rero-bound``
and ``rero-check`` never load the training stack (``nn``, ``shadow``,
``data``) and ``glm-attack`` loads only ``data`` and ``glm`` besides.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial

import numpy as np

from . import accounting, rero
from .persist import header_field, load_model, save_model, write_csv
from .profile import (ConfigError, at_least, build_featurizer, finite, load_profile,
                      nonnegative, nonnegatives, parse_config, reconn_config, run_config,
                      unit_interval)
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


def _check_targets(targets) -> None:
    """Refuse a config with no test targets to attack."""
    if not len(targets):
        raise ConfigError("split.test_target_size must be >= 1: the attack needs targets")


# ------------------------------------------------------------- subcommands

def cmd_train_released(args) -> int:
    from . import data, shadow

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
    from . import data, shadow

    cfg = parse_config(args.config)
    fixed, shadow_pool, _, arch, train_cfg = load_profile(cfg)
    if not (args.ood_pool or len(shadow_pool)):
        raise ConfigError("split.shadow_size must be >= 1 unless --ood-pool gives the shadow pool")
    if args.ood_pool:
        ood = data.load_csv(args.ood_pool, args.ood_label_column)
        if ood.dim != fixed.dim:
            raise ConfigError(f"--ood-pool has {ood.dim} features, the fixed set {fixed.dim}")
        shadow_pool = data.relabel_random(ood, fixed.num_classes, seed=cfg["profile.seed"])
    featurizer, shadow_pool = build_featurizer(cfg, shadow_pool, arch)
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
    from . import metrics, shadow

    cfg = parse_config(args.config)
    # the config's targets: train-released writes targets.csv for people only
    fixed, shadow_pool, targets, arch, _ = load_profile(cfg)
    _check_targets(targets)
    featurizer, _ = build_featurizer(cfg, shadow_pool, arch)
    released = []
    for i in range(len(targets)):
        path = os.path.join(args.released, f"target_{i:04d}.model")
        theta, meta = load_model(path)
        _check_config_hash(meta, path, cfg)
        released.append(theta)
    prefix = os.path.join(args.shadows, "shadows")
    shadow_set, fields = shadow.ShadowSet.load(prefix, featurizer, arch)
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
    from . import data, glm

    if args.no_intercept and (args.family == "logistic" or args.lam != 0):
        # the no-intercept attack solves unregularised least squares only
        raise ConfigError(f"--no-intercept attacks a linear model with --lam 0, not "
                          f"--family {args.family} --lam {args.lam}")
    if args.no_intercept and args.target_label is None:
        raise ConfigError("--no-intercept requires --target-label")
    # regression responses need not be integer class labels, so no load_csv
    X, Y = data.read_table(args.fixed, args.label_column)
    if not args.no_intercept:
        X = glm.add_intercept(X)
    try:
        table = data.read_floats(args.theta)
    except data.FormatError as e:
        raise ConfigError(f"--theta {e}") from None
    theta = np.atleast_1d(table.squeeze())  # a column or a single row, as np.loadtxt(ndmin=1)
    if not theta.size:
        raise ConfigError(f"--theta {args.theta}: no values")
    if theta.shape != X.shape[1:]:
        with_intercept = "" if args.no_intercept else ", the intercept included"
        raise ConfigError(f"--theta holds {theta.size} values, but the model of --fixed has "
                          f"{X.shape[1]}{with_intercept}")
    # input near the float range overflows inside the attack, which refuses
    # the non-finite result with exit 3; numpy's warnings would come first
    with np.errstate(over="ignore", invalid="ignore"):
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
    from . import mia, nn

    cfg = parse_config(args.config)
    fixed, _, targets, arch, train_cfg = load_profile(cfg)
    if len(targets) < 2:
        raise ConfigError("need at least two test targets")
    z0, z1 = targets[0], targets[1]
    if args.attack == "trivial":
        attack_fn = mia.trivial_deterministic_mia(fixed, z0, z1, arch, train_cfg)
    else:  # constant guesser baseline
        attack_fn = lambda theta: 0
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
    from . import metrics, shadow

    cfg = parse_config(args.config)
    if cfg["released.optimizer"] == "dpgd":
        # each row sets its own noise, and sigma 0 trains as the release does
        raise ConfigError("released.optimizer must not be dpgd: dp-sweep sets the noise")
    fixed, shadow_pool, targets, arch, base_cfg = load_profile(cfg)
    _check_targets(targets)
    if cfg["reconn.batch_size"] > len(shadow_pool):
        # train_reconn refuses it too, but only once a sigma's models have trained
        raise ConfigError(f"reconn.batch_size {cfg['reconn.batch_size']} exceeds the "
                          f"{len(shadow_pool)} shadow models the reconstructor trains on")
    sigmas, delta, clip = args.sigmas, cfg["dp.delta"], cfg["dp.clip_norm"]
    try:
        epsilons = [np.inf if sigma == 0.0 else accounting.zcdp_to_approx_dp(
            accounting.account_dpgd(base_cfg.epochs, clip, sigma), delta) for sigma in sigmas]
    except OverflowError:  # squaring the sensitivity or the noise std
        raise ConfigError(f"dp.clip_norm {clip!r} at --sigmas {max(sigmas)!r} overflows "
                          f"the privacy accounting") from None
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
    formulas = {  # flag: (required inputs, delta for thm3 and (kappa, gamma) for the rest)
        "thm3": (("eps", "gamma"), lambda: rero.rero_to_dp(args.eps, args.gamma)),
        "thm2": (("alpha", "eps", "kappa"),
                 lambda: (args.kappa, rero.rdp_to_rero(args.alpha, args.eps, args.kappa))),
        "cor1": (("eps", "kappa"), lambda: (args.kappa, rero.puredp_to_rero(args.eps, args.kappa))),
        "cor2": (("rho", "kappa"), lambda: (args.kappa, rero.zcdp_to_rero(args.rho, args.kappa))),
        "prop1": (("d", privacy), lambda: rero.prop_gamma(
            args.d, args.eta, {privacy: getattr(args, privacy)}, "uniform_ball")),
        "prop2": (("d", privacy, "sigma"), lambda: rero.prop_gamma(
            args.d, args.eta, {privacy: getattr(args, privacy)}, "gaussian", sigma=args.sigma)),
    }
    required, bound = formulas[args.formula]
    missing = ["--" + name for name in required if getattr(args, name) is None]
    if missing:
        raise ConfigError(f"--{args.formula} requires {', '.join(missing)}")
    if args.formula == "thm3":
        print(f"delta={bound()!r}")
        return EXIT_OK
    kappa, gamma = bound()
    print(f"gamma={gamma!r}")
    print(f"kappa={kappa!r}")
    print(f"source={args.formula}")
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

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main reports it with exit 2, not argparse's usage and exit
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="reconlab")
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
    p.add_argument("--k", type=at_least(1))
    p.add_argument("--ood-pool")
    p.add_argument("--ood-label-column", default="label")
    p.add_argument("--random-init", action="store_true")

    p = command(cmd_attack, "train the reconstructor and attack released models")
    p.add_argument("--shadows", required=True)
    p.add_argument("--released", required=True)

    p = command(cmd_glm_attack, "closed-form GLM reconstruction from CSV data", config=False)
    p.add_argument("--fixed", required=True)
    p.add_argument("--label-column", default="label")
    p.add_argument("--theta", required=True)
    p.add_argument("--family", default="linear", choices=["linear", "ridge", "logistic"])
    p.add_argument("--lam", type=nonnegative, default=0.0)
    p.add_argument("--no-intercept", action="store_true")
    p.add_argument("--target-label", type=finite)

    p = command(cmd_mia, "run the informed membership-inference game")
    p.add_argument("--trials", type=at_least(1), default=100)
    p.add_argument("--attack", choices=["trivial", "constant"], default="trivial")
    p.add_argument("--seed", type=int, default=0)

    p = command(cmd_dp_sweep, "sweep DP noise levels and report the trade-off")
    p.add_argument("--sigmas", type=nonnegatives, default="0,0.5,2,8")
    p.add_argument("--repeats", type=at_least(1), default=3)

    p = command(cmd_rero_bound, "evaluate a reconstruction-robustness formula", config=False)
    formula = p.add_mutually_exclusive_group(required=True)
    for flag in ("thm2", "cor1", "cor2", "thm3", "prop1", "prop2"):
        formula.add_argument("--" + flag, dest="formula", action="store_const", const=flag)
    privacy = p.add_mutually_exclusive_group()
    privacy.add_argument("--eps", type=finite)
    privacy.add_argument("--rho", type=nonnegative)
    for name, cast in (("kappa", unit_interval), ("alpha", finite), ("gamma", unit_interval),
                       ("sigma", finite)):
        p.add_argument("--" + name, type=cast)
    p.add_argument("--eta", type=finite, default=0.5)
    p.add_argument("--d", type=at_least(1))

    p = command(cmd_rero_check, "empirical soundness suite for the ReRo bounds", config=False)
    p.add_argument("--trials", type=at_least(100), default=500)
    p.add_argument("--seed", type=at_least(0), default=0)

    return parser


def _numerical_errors() -> tuple:
    """nn.DivergenceError and glm.GlmError. main looks them up only for an
    exception its first clause does not catch, so a command that never loads
    nn or glm does not load them to match it."""
    from . import glm, nn

    return nn.DivergenceError, glm.GlmError


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (ConfigError, ValueError, OSError) as e:  # data.FormatError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except _numerical_errors() as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())

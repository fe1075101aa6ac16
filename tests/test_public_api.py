import argparse
import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import dirmoment

SUBMODULES = ("arith", "chargroup", "kernel", "lfunc", "spectra",
              "asymptotics", "checks", "numerics", "cli")


@pytest.mark.parametrize("name", ["dirmoment", *SUBMODULES])
def test_every_exported_name_resolves(name):
    mod = (dirmoment if name == "dirmoment"
           else importlib.import_module(f"dirmoment.{name}"))
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_removed_names_are_gone():
    # one transform entry point, two correctly rounded sums (math.fsum,
    # and lfunc._exact_sum, floats for each segment and the total, for the
    # pair sums of abc_values and of error_sum_E), one pair set per
    # modulus (lfunc._pairs, the head then the tail, held in the class
    # store of lfunc._class_values), one
    # home for the classification rule (CharacterGroup's per-axis tables)
    # and one residue table per product range, scattered already folded
    # (spectra._table); no exports without a caller, trial division
    # as the only factorization, one pair batch size
    # (lfunc._PAIR_BATCH), one unit gather per table, shared by the
    # transform and its rounding bound (spectra._imag_bound), and one
    # map from the label grid to the residues
    # (CharacterGroup.unit_residues, from the generators' powers);
    # factorize returns its (p, e) pairs, the transform's exact-angle
    # oracle lives with the tests (scalar_ref.exact_transform), and exact
    # root-of-unity sums go by the Moebius function, not by division by
    # cyclotomic polynomials; the group's components are the FFT's axes,
    # so the transform keeps no Good-Thomas index maps
    mods = [dirmoment, *(importlib.import_module(f"dirmoment.{m}")
                         for m in SUBMODULES)]
    for gone in ("all_char_sums", "weight_table", "ResidueWeightTable",
                 "KahanSum", "parity_flat", "primitive_flat", "classify",
                 "_parity_transform", "mobius_sieve", "euler_phi_sieve",
                 "divisor_count", "primitive_count", "_is_probable_prime",
                 "_pollard_rho", "_MR_WITNESSES", "clear_kernel_cache",
                 "_fold", "_build_tables", "main_term_breakdown",
                 "MainTermBreakdown", "_repar_parts", "_FLUSH",
                 "_unit_abs_sum", "_dlog_table", "_dlog_tables_2e",
                 "w_eval", "w_series", "_MAX_REFINE", "hurwitz_zeta",
                 "char_eval", "Factorization", "_exact_transform",
                 "_cyclotomic", "_poly_mul_xk_minus_1",
                 "_poly_div_xk_minus_1", "_axis_maps"):
        assert not [m.__name__ for m in mods if hasattr(m, gone)], gone
    # the pair tables scatter at b a^-1 and symmetrize on the label grid,
    # so the group keeps no q-length table of inverses; a character is
    # read on the label grid only, and label k sits at position k
    for gone in ("inverse_table", "angle_num", "dlog_vector",
                 "is_induced_modulus", "principal", "label_index"):
        assert not hasattr(dirmoment.CharacterGroup, gone), gone
    assert not hasattr(dirmoment.CharacterSpectrum, "a_values")


# names exported but read outside src/dirmoment only: none
UNREAD_EXPORTS = set()


def test_every_export_is_read_in_src():
    # each name of a submodule's __all__, and each public method or
    # property of an exported class, is read (an ast.Name or, for a
    # method, an ast.Attribute, loaded) somewhere in src/dirmoment outside
    # __init__.py and outside its own definition; docstrings and
    # assignments do not count
    names, attrs = [], []  # (name, ids of the enclosing definitions)

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {id(node)}
        if isinstance(getattr(node, "ctx", None), ast.Load):
            if isinstance(node, ast.Name):
                names.append((node.id, inside))
            elif isinstance(node, ast.Attribute):
                attrs.append((node.attr, inside))
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    trees = {m: ast.parse(pathlib.Path(dirmoment.__file__).with_name(
        f"{m}.py").read_text()) for m in SUBMODULES}
    for tree in trees.values():
        visit(tree, frozenset())

    def read(name, definition, reads):
        return any(n == name and id(definition) not in inside
                   for n, inside in reads)

    unread = set()
    for m, tree in trees.items():
        defs = {node.name: node for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for name in importlib.import_module(f"dirmoment.{m}").__all__:
            node = defs.get(name)
            if not read(name, node, names + attrs):
                unread.add((m, name))
            if isinstance(node, ast.ClassDef):
                unread |= {(m, f"{name}.{fn.name}") for fn in node.body
                           if isinstance(fn, ast.FunctionDef)
                           and not fn.name.startswith("_")
                           and not read(fn.name, fn, attrs)}
    assert unread == UNREAD_EXPORTS


@pytest.mark.parametrize("name", SUBMODULES)
def test_no_unused_imports(name):
    # every name a module imports is read somewhere in it; __init__ is
    # left out, since it imports only to re-export
    path = pathlib.Path(dirmoment.__file__).with_name(f"{name}.py")
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - used)
    assert not unused


def test_no_kernel_knobs_above_the_kernel():
    # the package runs the one kernel configuration, kernel._CONFIG: no
    # subcommand takes kernel settings, no function or dataclass takes a
    # cfg or a KernelConfig (in the kernel module a private helper may:
    # _cheb_coef takes _CONFIG as its cache key), and no function builds
    # a KernelConfig
    from dirmoment import cli
    sub = next(a for a in cli._build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for name, parser in sub.choices.items():
        for flag in ("--kernel-c", "--kernel-h", "--kernel-eps", "--x-zero"):
            assert flag not in parser._option_string_actions, (name, flag)
    for m in SUBMODULES:
        mod = importlib.import_module(f"dirmoment.{m}")
        for name, obj in vars(mod).items():
            if (getattr(obj, "__module__", None) != mod.__name__
                    or m == "kernel" and name.startswith("_")):
                continue
            if inspect.isfunction(obj):
                params = [(p.name, p.annotation) for p in
                          inspect.signature(obj).parameters.values()]
            elif dataclasses.is_dataclass(obj):
                params = [(f.name, f.type) for f in dataclasses.fields(obj)]
            else:
                continue
            for arg, annotation in params:
                assert arg != "cfg", (name, arg)
                assert "KernelConfig" not in str(annotation), (name, arg)
        tree = ast.parse(pathlib.Path(mod.__file__).read_text())
        builds = [fn.name for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", None) == "KernelConfig"]
        assert not builds, (m, builds)


# every parameter with a default on a module-level function of the
# package, as (module, function, parameter): the knob count
KNOBS = {
    ("chargroup", "exact_primitive_char_sum", "parity"),
    ("lfunc", "kernel_weights", "head_only"),
    ("lfunc", "abc_values", "weights"),
    ("spectra", "fourth_moment", "weights"),
    ("asymptotics", "m_reparametrized", "weights"),
    ("cli", "_json", "indent"),
    ("cli", "main", "argv"),
}


def test_knobs_are_listed():
    # read from the source, so decorated functions count as written; a
    # new default is added to KNOBS or not at all, and nothing takes
    # *args or **kwargs
    found = set()
    for path in pathlib.Path(dirmoment.__file__).parent.glob("*.py"):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            assert args.vararg is None and args.kwarg is None, fn.name
            pos = args.posonlyargs + args.args
            found |= {(path.stem, fn.name, a.arg) for a in
                      pos[len(pos) - len(args.defaults):]
                      + [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                         if d is not None]}
    assert found == KNOBS
    # these build their own group and kernel table, which reproduce a
    # caller's bit for bit, and run their own frozen case lists, so they
    # take no weights, group, moduli or bands
    from dirmoment import asymptotics, checks, spectra
    for fn in (spectra.compute_spectrum, asymptotics.error_sum_E,
               asymptotics.m_direct, checks.oracle_equation,
               checks.diagonal_equality, checks.lemma5):
        params = inspect.signature(fn).parameters.values()
        assert all(p.default is p.empty and p.kind is p.POSITIONAL_OR_KEYWORD
                   for p in params), fn.__name__


# every cache of the package, as (module, function, maxsize): each holds
# its arrays, tuples or read-only maps for the life of the process, but
# lfunc._class_values, the per-character route's one store, which fills
# one modulus's pair set, Hurwitz values at the units, current kernel
# table and per-class results (one per conjugate class) as they are
# asked for
CACHES = {
    ("chargroup", "_phi_mu_sums", 64),
    ("kernel", "_height_grid", 64),
    ("kernel", "_nodes", 64),
    ("kernel", "_cheb_coef", 64),
    ("kernel", "_series_coef", 2),
    ("lfunc", "_hurwitz_cheb", 1),
    ("lfunc", "_class_values", 1),
}


def test_caches_are_listed():
    # a cache is added to CACHES or not at all
    found = set()
    for m in SUBMODULES:
        mod = importlib.import_module(f"dirmoment.{m}")
        found |= {(m, name, obj.cache_parameters()["maxsize"])
                  for name, obj in vars(mod).items()
                  if hasattr(obj, "cache_parameters")
                  and obj.__module__ == mod.__name__}
    assert found == CACHES


def test_runs_without_scipy():
    # numpy is the only runtime dependency: with scipy unimportable the
    # CLI still imports and computes a moment
    src = str(pathlib.Path(dirmoment.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from dirmoment.cli import main\n"
            "sys.exit(main(['moment', '--q', '1009']))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr


def test_moment_and_scan_leave_numpy_ma_unimported():
    # numpy.ma costs about 13 ms to import; nothing on the moment or the
    # scan path needs it
    src = str(pathlib.Path(dirmoment.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = ("import os, sys\n"
            "from dirmoment.cli import main\n"
            "main(['moment', '--q', '1009', '--out', os.devnull])\n"
            "main(['scan', '--qmin', '7', '--qmax', '9', '--out', os.devnull])\n"
            "sys.exit('numpy.ma' in sys.modules and 'numpy.ma imported')\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr

"""Print the size of the ``fanning`` package: source lines, settable parameters and options.

    python3 tools/surface.py [TREE]

TREE is a source tree holding ``src/fanning`` (default: this checkout).
Source lines are the newline count of ``src/fanning/*.py``, as
``wc -l`` gives it.  Settable parameters are the parameters with a default
value of every function, method and class defined in the package, counted
with ``inspect``, plus the dataclass fields with a default; a dataclass's
generated ``__init__`` is not counted a second time.  Command-line options
are the optional arguments of ``fanning.cli._build_parser()``, summed over
its subcommands, without ``--help``.
"""

import argparse
import dataclasses
import importlib
import inspect
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def source_lines(package_dir):
    return sum(path.read_bytes().count(b"\n") for path in sorted(package_dir.glob("*.py")))


def _defaulted(fn):
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return 0
    return sum(p.default is not inspect.Parameter.empty for p in params)


def settable_parameters(package_dir):
    """Count the defaulted parameters and fields defined in the package's modules."""
    sys.path.insert(0, str(package_dir.parent))
    count = 0
    for path in sorted(package_dir.glob("*.py")):
        module = importlib.import_module(f"{package_dir.name}.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                count += _defaulted(obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    count += sum(
                        f.default is not dataclasses.MISSING
                        or f.default_factory is not dataclasses.MISSING
                        for f in dataclasses.fields(obj)
                    )
                for name, member in vars(obj).items():
                    if dataclasses.is_dataclass(obj) and name == "__init__":
                        continue
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        count += _defaulted(member)
    return count


def command_line_options(package_dir):
    """Count the optional arguments of every subcommand of the package's parser."""
    sys.path.insert(0, str(package_dir.parent))
    parser = importlib.import_module(f"{package_dir.name}.cli")._build_parser()
    count = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                count += sum(
                    bool(a.option_strings) and not isinstance(a, argparse._HelpAction)
                    for a in sub._actions
                )
    return count


def main(argv):
    tree = Path(argv[0] if argv else HERE.parent).resolve()
    package_dir = tree / "src" / "fanning"
    if not package_dir.is_dir():
        sys.exit(f"no src/fanning in {tree}")
    print(f"src lines: {source_lines(package_dir)}")
    print(f"settable parameters: {settable_parameters(package_dir)}")
    print(f"command-line options: {command_line_options(package_dir)}")


if __name__ == "__main__":
    main(sys.argv[1:])

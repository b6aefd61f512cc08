"""Generate the VHDL file set for the 16-PE mesh machine and show what
the rewriter actually changed against the bundled templates.

    python3 demos/02_generate_vhdl.py [out_dir]
"""

import sys
from pathlib import Path

from mppsoc import (
    bundled_template_dir,
    generate,
    parse_config,
    plan_actions,
    validate,
)

HERE = Path(__file__).resolve().parent


def main():
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else HERE / "out"
    config = parse_config((HERE / "mesh16.cfg").read_text())
    assert validate(config).is_valid

    print("Planned substitutions:")
    for action in plan_actions(config):
        target = f" {action.target_name}" if action.target_name else ""
        print(f"  {action.anchor}{target} {action.delimiter} {action.new_value}")

    report = generate(config, out_dir)
    summary = "\n".join(report.lines())
    print(f"\n{summary} into {out_dir}")
    print(f"generation took {report.elapsed_seconds * 1000:.1f} ms",
          file=sys.stderr)

    print("\nLines that differ from the templates:")
    for name in sorted(p.name for p in out_dir.glob("*.vhd")):
        template = (bundled_template_dir() / name).read_text().splitlines()
        emitted = (out_dir / name).read_text().splitlines()
        for old, new in zip(template, emitted):
            if old != new:
                print(f"  {name}: {new.strip()}")


if __name__ == "__main__":
    main()

"""The three benchmark workloads and their oracles.

Each workload builds its inputs from a seed, runs one op at a time
through the toolkit's public API, and checks every op against an oracle
written here from the specification, not from the toolkit's code.  An
op's inputs depend only on (seed, op index), so a prefix of ops repeats
exactly and its simulated statistics can be diffed between commits.

Importing this module imports ``mppsoc``; the runner times that import
as part of set-up.
"""

from __future__ import annotations

import importlib.util
import io
import random
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import mppsoc.cli as cli
import mppsoc.mpnoc as mpnoc
import mppsoc.simulator as sim
from mppsoc.config import MpNocKind, MppSoCConfig, Neighborhood
from tracer import Tracer

WORD = 0xFFFFFFFF


def signed32(value: int) -> int:
    value &= WORD
    return value - (1 << 32) if value >> 31 else value


def op_rng(seed: int, index: int) -> random.Random:
    """The random stream for one op: a function of seed and index only."""
    return random.Random(seed * 1_000_003 + index)


class Workload:
    """Interface the runner drives.

    ``sweep`` is the number of ops after which the op sequence has
    covered every input shape once; the runner only stops on a sweep
    boundary and takes exact counts over the first sweep.
    """

    name = ""
    why = ""
    op_definition = ""
    size = ""
    stresses = ()
    bypasses = ()
    layers = ()          # layers that must show spans in a traced run
    sweep = 1
    # (opcode, prefix that sets the mask state, instruction): timed one
    # by one on the workload's machine in a traced run.
    opcodes = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = Tracer()   # records nothing until installed

    def prepare(self, index: int):
        """Draw op ``index``'s inputs (untimed)."""
        raise NotImplementedError

    def op(self, inputs):
        """The timed region: toolkit calls only."""
        raise NotImplementedError

    def check(self, inputs, output, plant: bool = False) -> str | None:
        """Return a description of what is wrong, or None.  ``plant``
        corrupts one expected value so the self-check can confirm the
        oracle notices."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {"why": self.why, "op": self.op_definition, "size": self.size,
                "stresses": list(self.stresses),
                "bypasses": list(self.bypasses)}


# -- array-compute ----------------------------------------------------------


def reduction_program(rows: int, cols: int) -> str:
    """Recursive-doubling sum (Hillis & Steele) executed on the array:
    along every row with MOVD W, then down column 0 with MOVD N.  Each
    step copies the partial into r1, shifts it ``stride`` hops with all
    PEs active, then adds it into r0 on the PEs that receive."""
    lines = ["LD r0, 0"]
    for direction, extent, modulus in (("W", cols, 1), ("N", rows, cols)):
        stride = 1
        while stride < extent:
            lines += ["UNMASK", "LDI r1, 0", "ADD r1, r1, r0"]
            lines += [f"MOVD r1, {direction}"] * stride
            lines += [f"MASK mod:{2 * stride * modulus}:0", "ADD r0, r0, r1"]
            stride *= 2
    lines += ["UNMASK", "ST r0, 4", "HALT"]
    return "\n".join(lines) + "\n"


class ArrayCompute(Workload):
    name = "array-compute"
    why = ("The simulator's per-PE instruction loops and the MOVD adjacency "
           "walk do almost all of the work and mpnoc does none, so a router "
           "change should leave this workload unchanged.")
    op_definition = ("Build a fresh SimMachine, load one seeded 32-bit value "
                     "per PE with set_values, and run the executed "
                     "recursive-doubling reduction; PE 0's r0 must equal "
                     "sum(values) as a signed 32-bit word.")
    stresses = ("simulator", "topology")
    bypasses = ("mpnoc", "config", "rules", "rewrite", "cli")
    layers = ("simulator", "topology")
    opcodes = tuple((instr.split()[0], "UNMASK", instr) for instr in (
        "LDI r1, 0", "LD r0, 0", "ST r0, 4", "ADD r1, r1, r0", "MOVD r1, W",
        "MASK mod:2:0", "UNMASK"))
    ROWS = COLS = 64

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = MppSoCConfig(rows=self.ROWS, cols=self.COLS,
                                   acu_mem_bytes=1024, pe_mem_bytes=64,
                                   neighborhood=Neighborhood.MESH2D)
        self.program = sim.load_program(reduction_program(self.ROWS, self.COLS))
        self.size = (f"{self.config.n_pes} PEs (64x64 mesh2d, no router), "
                     f"{len(self.program)} instructions per op")

    def prepare(self, index):
        rng = op_rng(self.seed, index)
        return [rng.randrange(-(1 << 31), 1 << 31)
                for _ in range(self.config.n_pes)]

    def op(self, values):
        machine = sim.SimMachine(self.config)
        machine.set_values(values)
        return sim.run(machine, self.program)

    def check(self, values, report, plant=False):
        expected = signed32(sum(values) + (1 if plant else 0))
        got = report.registers[0][0]
        if got != expected:
            return f"PE 0 r0 = {got}, expected {expected}"
        return None


# -- noc-program ------------------------------------------------------------


NOC_PES = 1024
NOC_SHIFTS = (1, 2, 4, 8, 16, 32, 64, 128)


class NocProgram(Workload):
    name = "noc-program"
    why = ("mpnoc.transfer and the greedy multi-pass scheduler dominate and "
           "topology does nothing; every routing pattern repeats, which is "
           "what a router schedule cache would serve.")
    stresses = ("mpnoc", "simulator")
    bypasses = ("topology", "config", "rules", "rewrite", "cli")
    layers = ("mpnoc", "simulator")
    REPEATS = 2
    # NOCSEND is timed under each MASK state the program gives it.
    opcodes = tuple((instr.split()[0], "UNMASK", instr) for instr in (
        "LDI r1, 0", "LD r0, 0", "ST r1, 4", "ADD r1, r1, r0",
        f"MASK lt:{NOC_PES - 1}", "UNMASK")) + tuple(
        ("NOCSEND", f"MASK lt:{NOC_PES - k}", f"NOCSEND pe, idx+{k}, r0")
        for k in NOC_SHIFTS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.config = MppSoCConfig(rows=32, cols=32, acu_mem_bytes=1024,
                                   pe_mem_bytes=64,
                                   mpnoc=MpNocKind.DELTA_OMEGA)
        lines = ["LD r0, 0", "LDI r1, 0"]
        for _ in range(self.REPEATS):
            for k in NOC_SHIFTS:
                lines += [f"MASK lt:{NOC_PES - k}",
                          f"NOCSEND pe, idx+{k}, r0", "ADD r1, r1, r0"]
        lines += ["UNMASK", "ST r1, 4", "HALT"]
        self.program = sim.load_program("\n".join(lines) + "\n")
        self.op_definition = (
            "Build a fresh SimMachine, load one seeded value per PE, and run "
            "NOCSEND pe,idx+K,r0 for K = 1, 2, ..., 128, each under MASK "
            "lt:N-K and followed by ADD r1,r1,r0, the whole sequence twice; "
            "every PE's registers must match a plain-Python model.")
        self.size = (f"{NOC_PES} PEs (32x32, delta-omega router only), "
                     f"{len(self.program)} instructions per op, "
                     f"{len(NOC_SHIFTS) * self.REPEATS} NOCSENDs per op")

    def prepare(self, index):
        rng = op_rng(self.seed, index)
        return [rng.randrange(-(1 << 31), 1 << 31) for _ in range(NOC_PES)]

    def op(self, values):
        machine = sim.SimMachine(self.config)
        machine.set_values(values)
        return sim.run(machine, self.program)

    def expected_registers(self, values):
        """Plain-Python model: under MASK lt:N-K, PE i < N-K sends r0 to
        PE i+K, which keeps it only if it is active itself; then every
        active PE adds r0 into r1."""
        r0 = [v & WORD for v in values]
        r1 = [0] * NOC_PES
        for _ in range(self.REPEATS):
            for k in NOC_SHIFTS:
                active = NOC_PES - k
                shifted = list(r0)
                for dst in range(k, active):
                    shifted[dst] = r0[dst - k]
                r0 = shifted
                for pe in range(active):
                    r1[pe] = (r1[pe] + r0[pe]) & WORD
        return [(signed32(a), signed32(b)) + (0,) * 6 for a, b in zip(r0, r1)]

    def check(self, values, report, plant=False):
        expected = self.expected_registers(values)
        if plant:
            expected[0] = (expected[0][0], expected[0][1] + 1) + expected[0][2:]
        if len(report.registers) != NOC_PES:
            return f"{len(report.registers)} PEs reported, expected {NOC_PES}"
        for pe, (got, want) in enumerate(zip(report.registers, expected)):
            if tuple(got) != want:
                return f"PE {pe} registers {tuple(got)}, expected {want}"
        return None


# -- design-sweep -----------------------------------------------------------

# (rows, cols): single-row and multi-row, power-of-two and not.  No shape
# that passes R1-R3 is unbuildable (ring needs cols >= 3, torus2d needs
# both sides >= 3), so every exit code follows from the rules and N.
SWEEP_SHAPES = ((1, 16), (1, 48), (1, 128), (4, 8), (3, 20), (16, 16))
SWEEP_NEIGHBOURHOODS = (None,) + tuple(Neighborhood)
SWEEP_ROUTERS = (None,) + tuple(MpNocKind)
MEM_BYTES = (16, 64, 100, 1024, 4096, 65536)

ONE_D = ("linear", "ring")
TWO_D = ("mesh2d", "torus2d", "xnet")
DELTA = ("delta-omega", "delta-baseline", "delta-butterfly")
VHDL_TOPOLOGY = {None: "NONE", "linear": "LINEAR", "ring": "RING",
                 "mesh2d": "MESH", "torus2d": "TORUS", "xnet": "XNET"}
IMAGE_NAME = "image.hex"
IMAGE_WORDS = 4


def is_power_of_two(n: int) -> bool:
    return n >= 1 and bin(n).count("1") == 1


def broken_rules(rows, cols, nb, router) -> list[str]:
    """R1-R3 restated from the specification."""
    broken = []
    if router in DELTA and not is_power_of_two(rows * cols):
        broken.append("R1")
    if rows == 1 and nb is not None and nb not in ONE_D:
        broken.append("R2")
    if rows > 1 and nb is not None and nb not in TWO_D:
        broken.append("R3")
    return broken


def address_width(nbytes: int) -> tuple[int, int]:
    """(words, address bits), at least one bit, counted by doubling."""
    words = nbytes // 4
    width = 1
    while (1 << width) < words:
        width += 1
    return words, width


def expected_vhdl(entry: dict) -> dict[str, list[str]]:
    """Whole lines (whitespace-stripped) each generated file must hold."""
    acu_words, acu_width = address_width(entry["acu"])
    pe_words, pe_width = address_width(entry["pe"])
    image = f'"{IMAGE_NAME}"' if entry["mem_init"] else '"blank.mif"'

    def memory(words, width):
        return [f"init_file => {image},", f"numwords_a => {words},",
                f"widthad_a => {width},",
                f"address : in STD_LOGIC_VECTOR ({width - 1} downto 0);"]

    return {
        "pack_mppsoc.vhd": [
            f"constant sl_nb_rows : integer := {entry['rows']};",
            f"constant sl_nb_column : integer := {entry['cols']};",
            f"constant MS_add_width : integer := {acu_width};",
            f"constant SL_add_width : integer := {pe_width};",
            f"constant topology : net_topology := {VHDL_TOPOLOGY[entry['nb']]};"],
        "mem_acu.vhd": memory(acu_words, acu_width),
        "mem_pe.vhd": memory(pe_words, pe_width),
        "user_library.vhd": [],
        "mapping_mppsoc.vhd": [],
    }


def expected_lines_rewritten(entry: dict) -> int:
    """Four geometry constants, the topology constant when a
    neighbourhood is set, and per memory file numwords/widthad/address
    plus init_file when an image is named."""
    per_memory = 3 + (1 if entry["mem_init"] else 0)
    return 4 + (1 if entry["nb"] else 0) + 2 * per_memory


def load_delta_oracle(root: Path):
    """The repository's independent stage-walk oracle, read-only."""
    path = root / "tests" / "delta_oracle.py"
    spec = importlib.util.spec_from_file_location("perfbench_delta_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class DesignSweep(Workload):
    name = "design-sweep"
    why = ("The only workload where config, rules, rewrite and cli do most "
           "of the work and simulator.run is never called; router traffic "
           "is one-shot, so a cache that only helps repeats costs here.")
    stresses = ("config", "rules", "rewrite", "cli", "mpnoc")
    bypasses = ("simulator.run",)
    layers = ("config", "rules", "rewrite", "topology", "mpnoc", "simulator",
              "cli")

    def __init__(self, seed, workdir, root: Path):
        super().__init__(seed, workdir)
        self.oracle = load_delta_oracle(root)
        rng = random.Random(seed)
        config_dir = workdir / "configs"
        config_dir.mkdir(parents=True, exist_ok=True)
        self.op_dir = workdir / "op"
        self.values_path = workdir / "values.txt"
        # Next to the image, which configs name by a relative path.
        self.config_path = config_dir / "machine.cfg"
        (config_dir / IMAGE_NAME).write_text(
            "".join(f"{rng.getrandbits(32):08x}\n" for _ in range(IMAGE_WORDS)))
        self.grid = []
        for rows, cols in SWEEP_SHAPES:
            for nb in SWEEP_NEIGHBOURHOODS:
                for router in SWEEP_ROUTERS:
                    if nb is None and router is None:
                        continue
                    entry = {
                        "rows": rows, "cols": cols,
                        "nb": nb.value if nb else None,
                        "router": router.value if router else None,
                        "acu": rng.choice(MEM_BYTES), "pe": rng.choice(MEM_BYTES),
                        "processor": rng.choice(("minimips", "mips", "nios")),
                        "mem_init": len(self.grid) % 4 == 0,
                    }
                    entry["text"] = self._config_text(entry)
                    self.grid.append(entry)
        rng.shuffle(self.grid)
        self.sweep = len(self.grid)
        self.op_definition = (
            "One config file through mppsoc.cli.main validate, generate -o "
            "DIR, simulate --app reduce --values @FILE with fresh values, and "
            "on configs whose router can be built, one fresh random "
            "permutation through route_permutation.")
        self.size = (f"{self.sweep} configs per sweep: {len(SWEEP_SHAPES)} "
                     f"shapes of 16-256 PEs x {len(SWEEP_NEIGHBOURHOODS) - 1} "
                     f"neighbourhoods or none x {len(SWEEP_ROUTERS) - 1} "
                     "routers or none, including R1/R2/R3 breakers and "
                     "non-power-of-two arrays")

    @staticmethod
    def _config_text(entry) -> str:
        lines = ["# design-sweep machine", f"processor = {entry['processor']}",
                 f"rows = {entry['rows']}", f"cols = {entry['cols']}",
                 f"acu_mem_bytes = {entry['acu']}",
                 f"pe_mem_bytes = {entry['pe']}"]
        if entry["nb"]:
            lines.append(f"neighborhood = {entry['nb']}")
        if entry["router"]:
            lines.append(f"mpnoc = {entry['router']}")
        if entry["mem_init"]:
            lines.append(f"mem_init = {IMAGE_NAME}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def routable(entry) -> bool:
        n = entry["rows"] * entry["cols"]
        return entry["router"] is not None and (
            entry["router"] not in DELTA or is_power_of_two(n))

    def prepare(self, index):
        entry = self.grid[index % self.sweep]
        rng = op_rng(self.seed, index)
        n = entry["rows"] * entry["cols"]
        values = [rng.randrange(-(1 << 31), 1 << 31) for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        # Fresh files each op, so generate must write its outputs again.
        # On ext4, creating a file is also cheaper and steadier than
        # truncating one, which starts writeback.
        if self.op_dir.is_dir():
            for stale in self.op_dir.iterdir():
                stale.unlink()
        for path, text in ((self.values_path, " ".join(map(str, values)) + "\n"),
                           (self.config_path, entry["text"])):
            path.unlink(missing_ok=True)
            path.write_text(text)
        return entry, values, perm

    def _cli(self, command, *args):
        out, err = io.StringIO(), io.StringIO()
        with self.tracer.span(f"cli.{command}"), \
                redirect_stdout(out), redirect_stderr(err):
            code = cli.main([command, *args])
        return code, out.getvalue()

    def op(self, inputs):
        entry, _values, perm = inputs
        path = str(self.config_path)
        out_dir = str(self.op_dir)
        result = {
            "validate": self._cli("validate", path),
            "generate": self._cli("generate", path, "-o", out_dir),
            "simulate": self._cli("simulate", path, "--app", "reduce",
                                  "--values", f"@{self.values_path}",
                                  "-o", out_dir),
        }
        if self.routable(entry):
            net = mpnoc.build_network(MpNocKind(entry["router"]), len(perm))
            result["route"] = mpnoc.route_permutation(net, perm)
        return result

    def check(self, inputs, result, plant=False):
        entry, values, perm = inputs
        n = entry["rows"] * entry["cols"]
        broken = broken_rules(entry["rows"], entry["cols"], entry["nb"],
                              entry["router"])

        code, text = result["validate"]
        want = 1 if broken else 0
        if plant:
            want = 1 - want
        if code != want:
            return f"validate exit {code}, expected {want}"
        lines = text.strip().splitlines()
        rules = [line.split(":", 1)[0].strip() for line in lines[1:]]
        if lines[0] != ("INVALID" if broken else "VALID") or rules != broken:
            return f"validate printed {text!r}, expected rules {broken}"

        code, text = result["generate"]
        if code != (1 if broken else 0):
            return f"generate exit {code}, expected {1 if broken else 0}"
        if not broken:
            problem = self._check_vhdl(entry, text)
            if problem:
                return problem

        code, text = result["simulate"]
        want = 1 if broken else (0 if is_power_of_two(n) else 3)
        if code != want:
            return f"simulate exit {code}, expected {want}"
        if want == 0:
            fields = dict(part.split("=", 1) for part in text.split())
            if int(fields["sum"]) != sum(values):
                return f"reduce sum {fields['sum']}, expected {sum(values)}"
            if int(fields["steps"]) != n.bit_length() - 1:
                return f"reduce steps {fields['steps']} for {n} PEs"

        if self.routable(entry):
            return self._check_route(entry["router"], perm, result.get("route"))
        return None

    def _check_vhdl(self, entry, report_text) -> str | None:
        total_lines = 0
        for name, required in expected_vhdl(entry).items():
            path = self.op_dir / name
            if not path.is_file():
                return f"generate wrote no {name}"
            text = path.read_text()
            total_lines += text.count("\n")
            present = {line.strip() for line in text.splitlines()}
            for line in required:
                if line not in present:
                    return f"{name} lacks {line!r}"
        want = (f"5 files written, {total_lines} lines generated, "
                f"{expected_lines_rewritten(entry)} lines rewritten")
        if report_text.strip() != want:
            return f"generate printed {report_text.strip()!r}, expected {want!r}"
        return None

    def _check_route(self, router, perm, routing) -> str | None:
        if routing is None:
            return "no routing result"
        routed = [pair for routed_pass in routing.per_pass for pair in routed_pass]
        if sorted(routed) != list(enumerate(perm)):
            return "routing did not deliver every pair exactly once"
        if routing.passes != len(routing.per_pass):
            return f"{routing.passes} passes reported, {len(routing.per_pass)} listed"
        kind = MpNocKind(router)
        for routed_pass in routing.per_pass:
            if router in DELTA:
                try:
                    self.oracle.assert_pass_conflict_free(kind, len(perm),
                                                          routed_pass)
                except AssertionError as err:
                    return f"conflicting pass: {err}"
            elif router == "sharedbus" and len(routed_pass) != 1:
                return f"bus pass carries {len(routed_pass)} messages"
        if router == "crossbar" and routing.passes != 1:
            return f"crossbar needed {routing.passes} passes"
        return None


def make(name: str, seed: int, workdir: Path, root: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    if name == ArrayCompute.name:
        return ArrayCompute(seed, workdir)
    if name == NocProgram.name:
        return NocProgram(seed, workdir)
    if name == DesignSweep.name:
        return DesignSweep(seed, workdir, root)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (ArrayCompute.name, NocProgram.name, DesignSweep.name)

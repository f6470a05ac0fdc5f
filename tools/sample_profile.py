#!/usr/bin/env python3
"""Statistical CPU profile of any command, for hosts without `perf`.

    python3 tools/sample_profile.py -- CMD [ARG...]

Compiles a small LD_PRELOAD sampler with the system `gcc`, runs CMD under
it, and prints where the CPU time went. The sampler arms a POSIX timer on
the process's CPU-time clock (`timer_create(CLOCK_PROCESS_CPUTIME_ID)`,
user and system time), and each SIGPROF records the program counter it
interrupted. At exit the process writes its samples and its
`/proc/self/maps` to `samples.<pid>` in a temporary directory. A program
that CMD execs with LD_PRELOAD intact loads the sampler again and samples
itself into its own file. A forked child that does not exec is not
sampled. `execve` deletes the timer and `fork` does not copy it, so no
process ever runs an armed timer without the handler (SIGPROF's default
action kills).

Samples are resolved per executable mapping: the file offset becomes an
ELF virtual address (via the PT_LOAD headers) and `addr2line -f -C` names
the function and source file. The report gives the sample count per DSO,
the top functions, and the split by source file (`[libc.so.6]` when a DSO
has no line info). With debug info, a sample in inlined code is named
after the innermost inlined function, e.g. `std::hash<unsigned int>`.
Unlike `-pg`/gprof, this also sees the time spent in libc, libstdc++ and
the kernel on the process's behalf, and needs no rebuild; build the
target with `-g` (e.g. RelWithDebInfo) for file names.

Caveats. The kernel checks CPU-time timers at its own tick, so the
sampler asks for SAMPLE_HZ samples per CPU second, a common tick rate,
and gets at most the host's tick rate. In a DSO without a full symbol
table (a stripped libc), a static function is named after the nearest
exported symbol before it; its DSO and file counts stay right. A process
that ends in `_exit`, `exec` or a fatal signal writes nothing. The
sampler records whichever thread the signal lands on; the simulator is
single-threaded.

Stdlib only. Exit status: the command's own exit status, or 2 on a
build or usage error.
"""

import argparse
import bisect
import collections
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

# Samples asked for per CPU second: a common kernel tick rate, which caps
# what CPU-time timers deliver.
SAMPLE_HZ = 250
# Rows in the function and source-file rankings.
TOP = 30

SAMPLER_C = r"""
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#define CAPACITY (1u << 21)
static uintptr_t samples[CAPACITY];
static volatile size_t count;
static volatile size_t dropped;

static void on_prof(int sig, siginfo_t* info, void* raw) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)raw;
#if defined(__x86_64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
#elif defined(__aarch64__)
  const uintptr_t pc = (uintptr_t)uc->uc_mcontext.pc;
#else
#error "sampler: unsupported architecture"
#endif
  if (count < CAPACITY) {
    samples[count++] = pc;
  } else {
    ++dropped;
  }
}

static pid_t owner;
static timer_t timer;
static int armed;

__attribute__((constructor)) static void start(void) {
  owner = getpid();
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  struct sigevent ev;
  memset(&ev, 0, sizeof(ev));
  ev.sigev_notify = SIGEV_SIGNAL;
  ev.sigev_signo = SIGPROF;
  if (timer_create(CLOCK_PROCESS_CPUTIME_ID, &ev, &timer) != 0) {
    return;
  }
  struct itimerspec it;
  memset(&it, 0, sizeof(it));
  it.it_interval.tv_nsec = 1000000000L / SAMPLE_HZ;
  it.it_value = it.it_interval;
  armed = timer_settime(timer, 0, &it, NULL) == 0;
}

__attribute__((destructor)) static void finish(void) {
  /* A forked child holds a copy of its parent's samples: only the process
     that loaded the sampler writes them. */
  if (getpid() != owner) {
    return;
  }
  if (armed) {
    timer_delete(timer);
  }
  char path[4096];
  snprintf(path, sizeof(path), "%s/samples.%ld", OUT_DIR, (long)getpid());
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    return;
  }
  fprintf(out, "# msn-sample-v1 hz=%d samples=%zu dropped=%zu\n", SAMPLE_HZ, (size_t)count,
          (size_t)dropped);
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps != NULL) {
    char line[4352];
    while (fgets(line, sizeof(line), maps) != NULL) {
      fprintf(out, "map %s", line);
    }
    fclose(maps);
  }
  for (size_t i = 0; i < count; ++i) {
    fprintf(out, "pc %lx\n", (unsigned long)samples[i]);
  }
  fclose(out);
}
"""

Mapping = collections.namedtuple("Mapping", "start end offset path")


def parse_samples(text):
    """(executable mappings sorted by start, list of sampled pcs) of one file."""
    maps, pcs = [], []
    for line in text.splitlines():
        if line.startswith("pc "):
            pcs.append(int(line[3:], 16))
        elif line.startswith("map "):
            fields = line[4:].split(None, 5)
            if len(fields) < 6 or "x" not in fields[1] or not fields[5].startswith("/"):
                continue
            start, end = (int(v, 16) for v in fields[0].split("-"))
            maps.append(Mapping(start, end, int(fields[2], 16), fields[5].strip()))
    maps.sort()
    return maps, pcs


def locate(maps, pc):
    """(path, file offset) of `pc`, or None outside every executable mapping."""
    i = bisect.bisect_right([m.start for m in maps], pc) - 1
    if i < 0 or pc >= maps[i].end:
        return None
    m = maps[i]
    return m.path, pc - m.start + m.offset


def elf_vaddr(path, file_offsets):
    """Maps each file offset of an ELF file to its virtual address."""
    with open(path, "rb") as f:
        ident = f.read(64)
        if ident[:4] != b"\x7fELF" or ident[4] != 2:
            raise ValueError(f"{path}: not a 64-bit ELF file")
        end = "<" if ident[5] == 1 else ">"
        phoff, = struct.unpack_from(end + "Q", ident, 32)
        phentsize, phnum = struct.unpack_from(end + "HH", ident, 54)
        f.seek(phoff)
        table = f.read(phentsize * phnum)
    loads = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            end + "IIQQQQ", table, i * phentsize)
        if p_type == 1:  # PT_LOAD
            loads.append((p_offset, p_vaddr, p_filesz))
    out = {}
    for fo in file_offsets:
        for p_offset, p_vaddr, p_filesz in loads:
            if p_offset <= fo < p_offset + p_filesz:
                out[fo] = fo - p_offset + p_vaddr
                break
    return out


def addr2line_resolver(path, file_offsets):
    """{file offset: (function, source file)} via addr2line; '??' if unknown."""
    unknown = ("??", "??")
    try:
        vaddrs = elf_vaddr(path, file_offsets)
    except (OSError, ValueError, struct.error):
        return {fo: unknown for fo in file_offsets}
    ordered = sorted(vaddrs.items())
    query = "".join(f"{va:x}\n" for _, va in ordered)
    proc = subprocess.run(["addr2line", "-f", "-C", "-e", path], input=query,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                          check=False)
    lines = proc.stdout.splitlines()
    out = {fo: unknown for fo in file_offsets}
    for i, (fo, _) in enumerate(ordered):
        if 2 * i + 1 < len(lines):
            source = lines[2 * i + 1].rsplit(":", 1)[0]
            out[fo] = (lines[2 * i], source)
    return out


Profile = collections.namedtuple("Profile", "total by_dso by_function by_file")


def aggregate(texts, resolve=addr2line_resolver):
    """Sample counts per DSO, per (function, DSO) and per source file."""
    located = collections.Counter()  # (path, file offset) -> samples
    total = 0
    for text in texts:
        maps, pcs = parse_samples(text)
        total += len(pcs)
        for pc, n in collections.Counter(pcs).items():
            located[locate(maps, pc)] += n
    by_dso, by_function, by_file = (collections.Counter() for _ in range(3))
    offsets = collections.defaultdict(set)
    for where in located:
        if where is not None:
            offsets[where[0]].add(where[1])
    names = {path: resolve(path, sorted(fos)) for path, fos in offsets.items()}
    for where, n in located.items():
        if where is None:
            by_dso["[unmapped]"] += n
            by_function[("??", "[unmapped]")] += n
            by_file["[unmapped]"] += n
            continue
        dso = os.path.basename(where[0])
        function, source = names[where[0]][where[1]]
        by_dso[dso] += n
        by_function[(function, dso)] += n
        by_file[source if source != "??" else f"[{dso}]"] += n
    return Profile(total, by_dso, by_function, by_file)


def format_report(profile, top):
    def pct(n):
        return 100.0 * n / profile.total if profile.total else 0.0

    def rank(counter):
        return sorted(counter.items(), key=lambda kv: (-kv[1], str(kv[0])))

    lines = [f"{profile.total} samples"]
    lines.append("\nby DSO:")
    lines += [f"{n:9d} {pct(n):6.2f}%  {dso}" for dso, n in rank(profile.by_dso)]
    lines.append(f"\ntop {top} functions:")
    lines += [f"{n:9d} {pct(n):6.2f}%  {fn}  [{dso}]"
              for (fn, dso), n in rank(profile.by_function)[:top]]
    lines.append(f"\nby source file (top {top}):")
    lines += [f"{n:9d} {pct(n):6.2f}%  {src}" for src, n in rank(profile.by_file)[:top]]
    return "\n".join(lines) + "\n"


def sample_files(out_dir):
    return [f.read_text(encoding="utf-8", errors="replace")
            for f in sorted(Path(out_dir).glob("samples.*"))]


def build_sampler(out_dir):
    lib = out_dir / "libmsnsample.so"
    src = out_dir / "sampler.c"
    src.write_text(SAMPLER_C, encoding="utf-8")
    cmd = ["gcc", "-O2", "-shared", "-fPIC", f"-DSAMPLE_HZ={SAMPLE_HZ}",
           f'-DOUT_DIR="{out_dir}"', "-o", str(lib), str(src)]
    subprocess.run(cmd, check=True)
    return lib


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="+")
    args = parser.parse_args(argv)
    out_dir = Path(tempfile.mkdtemp(prefix="msn-sample-")).resolve()
    try:
        try:
            lib = build_sampler(out_dir)
        except (OSError, subprocess.CalledProcessError) as err:
            print(f"sample_profile: cannot build the sampler: {err}", file=sys.stderr)
            return 2
        env = dict(os.environ)
        env["LD_PRELOAD"] = " ".join(filter(None, [str(lib), env.get("LD_PRELOAD")]))
        status = subprocess.run(args.command, env=env, check=False).returncode
        sys.stdout.write(format_report(aggregate(sample_files(out_dir)), TOP))
        return status
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

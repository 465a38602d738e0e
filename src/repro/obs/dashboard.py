"""Live terminal dashboard over a recording's time series.

``repro monitor`` runs a recorded query and renders, while it
executes, one sparkline row per machine (buffered contexts against the
configured budget, with current ops/inflight/idle readouts) plus the
stage-completion wavefront — how many machines have declared each stage
COMPLETED.  On a real terminal the frame redraws in place with ANSI
cursor movement; when stdout is not a TTY (CI logs, pipes) it degrades
to periodic plain-text snapshots separated by blank lines.

The dashboard is a pure consumer: it hooks the sampler's ``on_sample``
callback and reads the recorded series, so rendering can never perturb
the simulation (the series is identical with or without a monitor
attached).
"""

import sys

#: Eight-level sparkline ramp, lowest to highest.
SPARK_CHARS = "▁▂▃▄▅▆▇█"


def sparkline(values, width=32, ceiling=None):
    """Render *values* as a fixed-width sparkline string.

    The last *width* values are shown, scaled against *ceiling* (or the
    window's max when None/0).  Empty input renders as spaces so rows
    stay aligned while the series warms up.
    """
    window = list(values)[-width:]
    if not window:
        return " " * width
    top = ceiling if ceiling else max(window)
    if top <= 0:
        top = 1
    chars = []
    for value in window:
        level = int(value / top * (len(SPARK_CHARS) - 1) + 0.5)
        level = max(0, min(len(SPARK_CHARS) - 1, level))
        chars.append(SPARK_CHARS[level])
    return "".join(chars).rjust(width)


def wavefront_bar(done, total, width=10):
    """``[####....]``-style progress cell for one stage."""
    if total <= 0:
        return "[" + " " * width + "]"
    filled = int(done / total * width + 0.5)
    return "[" + "#" * filled + "." * (width - filled) + "]"


def render_frame(sampler, tick, width=32):
    """The full dashboard frame as a list of lines (no ANSI)."""
    budget = sampler.budget
    lines = [
        "repro monitor  tick %-8d samples %-6d budget %d contexts"
        % (tick, sampler.num_samples, budget)
    ]
    lines.append(
        "  %-4s %-*s %9s %9s %9s %6s"
        % ("", width, "buffered contexts", "buf", "ops", "inflight", "idle")
    )
    for machine_id in sorted(sampler.machines):
        series = sampler.machines[machine_id]
        buffered = series["buffered"]
        lines.append(
            "  m%-3d %s %9d %9d %9d %5d%%"
            % (
                machine_id,
                sparkline(buffered, width=width, ceiling=budget),
                buffered[-1] if buffered else 0,
                series["ops"][-1] if series["ops"] else 0,
                series["inflight"][-1] if series["inflight"] else 0,
                int(100 * series["idle_frac"][-1])
                if series["idle_frac"] else 0,
            )
        )
    if sampler.wavefront:
        front = sampler.wavefront[-1]
        total = len(sampler.machines)
        lines.append("  stage wavefront (machines completed):")
        cells = [
            "s%d %s %d/%d" % (stage, wavefront_bar(done, total), done, total)
            for stage, done in enumerate(front)
        ]
        # Three stages per row keeps long plans within one screen width.
        for start in range(0, len(cells), 3):
            lines.append("    " + "   ".join(cells[start:start + 3]))
    return lines


class Dashboard:
    """Renders series frames to a stream as the simulation runs.

    Attach with :meth:`attach`; detach happens implicitly when the run
    ends (the sampler simply stops calling back).  ``interactive=None``
    autodetects: ANSI in-place redraw on a TTY, plain snapshots
    otherwise.
    """

    def __init__(self, stream=None, interactive=None, width=32,
                 refresh_every=8):
        self.stream = stream if stream is not None else sys.stdout
        if interactive is None:
            interactive = bool(getattr(self.stream, "isatty", lambda: False)())
        self.interactive = interactive
        self.width = width
        #: Render every N samples (snapshot mode spaces them further out).
        self.refresh_every = refresh_every
        self.frames_rendered = 0
        self._last_height = 0

    def attach(self, sampler):
        sampler.on_sample = self.on_sample
        sampler.callback_every = self.refresh_every
        return self

    def on_sample(self, sampler, tick):
        lines = render_frame(sampler, tick, width=self.width)
        out = self.stream
        if self.interactive and self._last_height:
            # Move up over the previous frame and overwrite in place.
            out.write("\x1b[%dA" % self._last_height)
            lines = [line + "\x1b[K" for line in lines]
        out.write("\n".join(lines) + "\n")
        if not self.interactive:
            out.write("\n")
        out.flush()
        self._last_height = len(lines) if self.interactive else 0
        self.frames_rendered += 1

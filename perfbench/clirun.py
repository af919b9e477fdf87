"""Run the qbaxter command line in this process and write the spans it recorded.

    python perfbench/clirun.py time|trace SPANS.json -- <qbaxter.cli arguments>

This is `python -m qbaxter.cli` with span wrappers installed first: `time`
records only chain.q_operator calls (for q_eval_p50_s), `trace` records every
span in spans.SPANS. The exit code is the CLI's; an exception that escapes the
CLI exits with 3 so that it cannot pass for a failed theorem check (exit 1).
"""

import json
import sys
import traceback

import spans


def main(argv):
    mode, spans_path, sep, *cli_args = argv
    if mode not in ("time", "trace") or sep != "--":
        raise SystemExit(__doc__)
    mods = spans.import_package()
    recorder = spans.Recorder(None if mode == "trace" else ("chain.q_operator",))
    recorder.install(mods)
    try:
        code = mods["cli"].main(cli_args)
    except Exception:
        traceback.print_exc()
        code = 3
    finally:
        recorder.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": recorder.spans, "absent": recorder.absent,
                       "peak_rss_kib": spans.peak_rss_kib()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

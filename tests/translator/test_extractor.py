"""Unit tests for the model extractor (CAPL -> CSPm pipeline)."""

import pytest

from repro.csp import event
from repro.csp.lts import compile_lts
from repro import api
from repro.translator import (
    ChannelConvention,
    ExtractorConfig,
    ModelExtractor,
    TranslationError,
)
from repro.translator.cli import main as capl2cspm_main
from repro.ota.capl_sources import ECU_SOURCE, VMG_SOURCE

SIMPLE_ECU = """
variables
{
  message rptSw msgRptSw;
  message rptUpd msgRptUpd;
}
on message reqSw { output(msgRptSw); }
on message reqApp { output(msgRptUpd); }
"""


class TestBasicExtraction:
    def test_message_universe_collected(self):
        result = ModelExtractor().extract(SIMPLE_ECU, "ECU")
        assert set(result.messages) == {"rptSw", "rptUpd", "reqSw", "reqApp"}

    def test_datatype_and_channels_declared(self):
        text = ModelExtractor().extract(SIMPLE_ECU, "ECU").script_text
        assert "datatype msgs =" in text
        assert "channel send, rec : msgs" in text

    def test_handler_processes_fig3_shape(self):
        text = ModelExtractor().extract(SIMPLE_ECU, "ECU").script_text
        assert "ECU_ONMSG_REQSW = send.reqSw -> rec!rptSw -> ECU_MAIN" in text
        assert "ECU_ONMSG_REQAPP = send.reqApp -> rec!rptUpd -> ECU_MAIN" in text
        assert "ECU_MAIN = ECU_ONMSG_REQSW [] ECU_ONMSG_REQAPP" in text

    def test_generated_script_loads_and_checks(self):
        result = ModelExtractor().extract(SIMPLE_ECU, "ECU")
        model = result.load()
        outcome = api.check_deadlock(model.process(result.process_name), env=model.env)
        assert outcome.passed

    def test_generated_model_behaviour(self):
        """The extracted ECU can do reqSw then rptSw -- and only that order."""
        result = ModelExtractor().extract(SIMPLE_ECU, "ECU")
        model = result.load()
        lts = compile_lts(model.process("ECU"), model.env)
        assert lts.walk([event("send", "reqSw"), event("rec", "rptSw")]) is not None
        assert lts.walk([event("rec", "rptSw")]) is None

    def test_unqualified_names(self):
        config = ExtractorConfig(qualify_names=False)
        text = ModelExtractor(config).extract(SIMPLE_ECU, "ECU").script_text
        assert "ONMSG_REQSW = send.reqSw" in text

    def test_custom_channel_convention(self):
        config = ExtractorConfig(convention=ChannelConvention("bus_in", "bus_out"))
        text = ModelExtractor(config).extract(SIMPLE_ECU, "ECU").script_text
        assert "channel bus_in, bus_out : msgs" in text
        assert "bus_in.reqSw -> bus_out!rptSw" in text

    def test_extra_messages_widen_datatype(self):
        config = ExtractorConfig(extra_messages=["heartbeat"])
        result = ModelExtractor(config).extract(SIMPLE_ECU, "ECU")
        assert "heartbeat" in result.messages

    def test_numeric_selector(self):
        source = "on message 0x1A { }"
        result = ModelExtractor().extract(source, "N")
        assert "ID_0X1A" in result.messages
        assert "N_ONMSG_ID_0X1A" in result.script_text

    def test_wildcard_handler_offers_all_messages(self):
        source = (
            "variables { message rptSw m; }\n"
            "on message * { output(m); }\n"
            "on message reqSw { }"
        )
        result = ModelExtractor().extract(source, "N")
        model = result.load()
        lts = compile_lts(model.process("N"), model.env)
        # the wildcard handler accepts any message, including rptSw itself
        assert lts.walk([event("send", "rptSw"), event("rec", "rptSw")]) is not None

    def test_node_with_no_handlers_is_stop(self):
        result = ModelExtractor().extract("variables { int x; }", "IDLE")
        assert "IDLE_MAIN = STOP" in result.script_text


class TestControlFlowTranslation:
    def test_conditional_becomes_choice(self):
        source = (
            "variables { message rptSw a; message rptUpd b; int c = 0; }\n"
            "on message reqSw { if (c == 0) { output(a); } else { output(b); } }"
        )
        text = ModelExtractor().extract(source, "E").script_text
        assert "(rec!rptSw -> E_MAIN [] rec!rptUpd -> E_MAIN)" in text

    def test_loop_becomes_recursive_auxiliary(self):
        source = (
            "variables { message rptSw a; int i; }\n"
            "on message reqSw { for (i = 0; i < 3; i++) { output(a); } }"
        )
        result = ModelExtractor().extract(source, "E")
        assert "_LOOP1" in result.script_text
        model = result.load()
        lts = compile_lts(model.process("E"), model.env)
        # zero, one, and many iterations all admitted
        req, rpt = event("send", "reqSw"), event("rec", "rptSw")
        assert lts.walk([req]) is not None
        assert lts.walk([req, rpt, rpt, rpt]) is not None

    def test_function_call_inlined(self):
        source = (
            "variables { message rptSw a; }\n"
            "void reply() { output(a); }\n"
            "on message reqSw { reply(); }"
        )
        text = ModelExtractor().extract(source, "E").script_text
        assert "send.reqSw -> rec!rptSw" in text


class TestTimers:
    def test_timer_model_generated(self):
        result = ModelExtractor().extract(VMG_SOURCE, "VMG")
        text = result.script_text
        assert "datatype timerIds = sessionTimer" in text
        assert "channel timeout, setTimer, cancelTimer : timerIds" in text
        assert "VMG_TIMER_SESSIONTIMER" in text
        assert result.timers == ("sessionTimer",)

    def test_timer_monitor_enforces_set_before_fire(self):
        result = ModelExtractor().extract(VMG_SOURCE, "VMG")
        model = result.load()
        lts = compile_lts(model.process("VMG"), model.env)
        fire = event("timeout", "sessionTimer")
        arm = event("setTimer", "sessionTimer")
        assert lts.walk([fire]) is None  # cannot fire unarmed
        assert lts.walk([arm, fire]) is not None

    def test_timers_can_be_excluded(self):
        config = ExtractorConfig(include_timers=False)
        text = ModelExtractor(config).extract(VMG_SOURCE, "VMG").script_text
        assert "timerIds" not in text
        assert "setTimer" not in text

    def test_monitorless_mode(self):
        config = ExtractorConfig(timer_monitors=False)
        text = ModelExtractor(config).extract(VMG_SOURCE, "VMG").script_text
        assert "VMG_TIMER_SESSIONTIMER" not in text
        assert "setTimer.sessionTimer" in text  # events still visible


class TestRealSources:
    def test_paper_ecu_extracts_and_checks(self):
        result = ModelExtractor().extract(ECU_SOURCE, "ECU")
        model = result.load()
        assert api.check_deadlock(model.process("ECU"), env=model.env).passed

    def test_paper_vmg_extracts_and_checks(self):
        result = ModelExtractor().extract(VMG_SOURCE, "VMG")
        model = result.load()
        assert api.check_deadlock(model.process("VMG"), env=model.env).passed

    def test_extract_file_uses_stem_as_node_name(self, tmp_path):
        path = tmp_path / "gateway.can"
        path.write_text(SIMPLE_ECU)
        result = ModelExtractor().extract_file(str(path))
        assert result.node_name == "GATEWAY"


class TestCli:
    def test_stdout(self, capsys, tmp_path):
        path = tmp_path / "ecu.can"
        path.write_text(SIMPLE_ECU)
        assert capl2cspm_main([str(path)]) == 0
        assert "datatype msgs" in capsys.readouterr().out

    def test_output_file_and_check(self, tmp_path, capsys):
        path = tmp_path / "ecu.can"
        path.write_text(SIMPLE_ECU)
        out = tmp_path / "ecu.csp"
        assert capl2cspm_main([str(path), "-o", str(out), "--check"]) == 0
        assert "ECU_ONMSG_REQSW" in out.read_text()
        assert "PASSED" in capsys.readouterr().err

    def test_channel_flags(self, tmp_path, capsys):
        path = tmp_path / "ecu.can"
        path.write_text(SIMPLE_ECU)
        assert capl2cspm_main(
            [str(path), "--in-channel", "rx", "--out-channel", "tx"]
        ) == 0
        assert "channel rx, tx : msgs" in capsys.readouterr().out

    def test_unreadable_input_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.can"
        with pytest.raises(SystemExit) as info:
            capl2cspm_main([str(missing)])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("capl2cspm: cannot read input: ")
        assert "missing.can" in captured.err
        assert captured.out == ""

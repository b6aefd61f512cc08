-- pack_mppsoc.vhd
-- Configuration package: every architecture-level constant the generator
-- manages.  The zero placeholders are overwritten when a configuration
-- is applied; NONE means no neighbourhood network.
library ieee;
use ieee.std_logic_1164.all;
use work.user_library.all;

package pack_mppsoc is

  -- PE grid geometry
  constant sl_nb_rows : integer := 4;
  constant sl_nb_column : integer := 4;

  -- Address widths of the ACU and PE data memories
  constant MS_add_width : integer := 10;
  constant SL_add_width : integer := 8;

  -- Neighbourhood network topology
  constant topology : net_topology := MESH;

  -- Instruction memory depth (fixed, not user-configurable)
  constant inst_mem_words : integer := 4096;

  component acu
    port (
      clk    : in  std_logic;
      reset  : in  std_logic;
      i_data : in  data_word;
      o_addr : out data_word;
      o_data : out data_word;
      o_wren : out std_logic
    );
  end component;

  component pe
    port (
      clk     : in  std_logic;
      reset   : in  std_logic;
      enable  : in  std_logic;
      i_instr : in  data_word;
      i_data  : in  data_word;
      o_data  : out data_word
    );
  end component;

end package pack_mppsoc;

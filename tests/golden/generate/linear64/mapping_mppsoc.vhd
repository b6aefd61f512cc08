-- mapping_mppsoc.vhd
-- Top level: one ACU, the PE array and the network glue, all sized by
-- the constants in pack_mppsoc.
library ieee;
use ieee.std_logic_1164.all;
use work.user_library.all;
use work.pack_mppsoc.all;

entity mapping_mppsoc is
  port (
    clk    : in  std_logic;
    reset  : in  std_logic;
    io_in  : in  data_word;
    io_out : out data_word
  );
end mapping_mppsoc;

architecture structural of mapping_mppsoc is

  signal pe_enable : std_logic_vector(sl_nb_rows * sl_nb_column - 1 downto 0);
  signal acu_instr : data_word;
  signal acu_data  : data_word;

begin

  acu0 : acu
    port map (
      clk    => clk,
      reset  => reset,
      i_data => io_in,
      o_addr => open,
      o_data => acu_data,
      o_wren => open
    );

  pe_array : for i in 0 to sl_nb_rows * sl_nb_column - 1 generate
    pe_i : pe
      port map (
        clk     => clk,
        reset   => reset,
        enable  => pe_enable(i),
        i_instr => acu_instr,
        i_data  => acu_data,
        o_data  => open
      );
  end generate;

  io_out <= acu_data;

end structural;

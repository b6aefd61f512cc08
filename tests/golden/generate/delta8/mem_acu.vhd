-- mem_acu.vhd
-- ACU sequential data memory: single-port synchronous RAM wrapper.
-- Placeholder generics (zero sizes, blank image, 64-bit address) are
-- overwritten when a configuration is applied.
library ieee;
use ieee.std_logic_1164.all;

entity mem_acu is
  port (
    clock : in std_logic;
    address : in STD_LOGIC_VECTOR (9 downto 0);
    data : in STD_LOGIC_VECTOR (31 downto 0);
    wren : in std_logic;
    q : out STD_LOGIC_VECTOR (31 downto 0)
  );
end mem_acu;

architecture rtl of mem_acu is
begin

  ram0 : entity work.altsyncram
    generic map (
      init_file => "blank.mif",
      lpm_type => "altsyncram",
      operation_mode => "SINGLE_PORT",
      numwords_a => 1024,
      widthad_a => 10,
      width_a => 32
    )
    port map (
      clock0 => clock,
      address_a => address,
      data_a => data,
      wren_a => wren,
      q_a => q
    );

end rtl;
